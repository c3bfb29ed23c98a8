package workload

import (
	"runtime"
	"testing"
	"time"
)

// waitGoroutines polls until the goroutine count drops back to at most
// want (GC/scheduler bookkeeping can lag a closed channel briefly).
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= want {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d > %d\n%s", runtime.NumGoroutine(), want, buf[:n])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCloseTerminatesProgram pins the emitter lifecycle: Close always
// unblocks and terminates the Program goroutine for every catalog
// benchmark, whether the consumer stopped mid-batch, right after a
// checkpoint, or without consuming anything at all.
func TestCloseTerminatesProgram(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, name := range Names() {
		// Close without consuming: the producer may be blocked on its
		// first send.
		g := MustNew(name, ScaleTiny, 1)
		g.Close()

		// Close mid-batch: consume a non-multiple of the engine batch
		// size so the consumer is parked inside a producer batch.
		g = MustNew(name, ScaleTiny, 1)
		buf := make([]Access, 1000)
		if n := NextBatch(g, buf); n != len(buf) {
			t.Fatalf("%s: NextBatch = %d, want %d", name, n, len(buf))
		}
		g.Close()

		// Close after Checkpoint: capturing replay state must not wedge
		// the producer.
		g = MustNew(name, ScaleTiny, 1)
		NextBatch(g, buf)
		if _, ok := CheckpointOf(g); !ok {
			t.Fatalf("%s: catalog generator lost checkpoint support", name)
		}
		g.Close()

		// Double Close stays safe.
		g.Close()
	}
	waitGoroutines(t, before)
}

// TestCloseUnblocksPendingProducer pins the priority-stop path: a
// producer with buffered batches outstanding terminates promptly after
// Close rather than racing the drain loop indefinitely.
func TestCloseUnblocksPendingProducer(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		g := MustNew("pr", ScaleTiny, int64(i))
		// Pull one access so the producer is warmed up and mid-stream.
		if _, ok := next(g); !ok {
			t.Fatal("stream ended immediately")
		}
		g.Close()
	}
	waitGoroutines(t, before)
}
