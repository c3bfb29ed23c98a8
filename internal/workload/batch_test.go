package workload

import "testing"

// next reads one access as a batch of one; ok is false once the stream
// has ended.
func next(g Generator) (Access, bool) {
	var one [1]Access
	if g.NextBatch(one[:]) == 0 {
		return Access{}, false
	}
	return one[0], true
}

// TestNextBatchMatchesNext pins the batch path's equivalence claim for
// every catalog generator: a fresh instance drained through NextBatch with
// awkward buffer sizes emits element-for-element the stream a second fresh
// instance (a Close/reopen boundary away) emits one access at a time, as
// one-element batches.
func TestNextBatchMatchesNext(t *testing.T) {
	const n = 40_000
	// Deliberately ragged sizes so batches straddle the producer's internal
	// batch boundaries in every alignment.
	sizes := []int{1, 3, 17, 256, 1000, 4096}
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			ref := MustNew(name, ScaleTiny, 3)
			want := make([]Access, n)
			for i := range want {
				a, ok := next(ref)
				if !ok {
					t.Fatalf("one-access stream ended at %d", i)
				}
				want[i] = a
			}
			ref.Close()

			g := MustNew(name, ScaleTiny, 3)
			defer g.Close()
			got := make([]Access, 0, n)
			for si := 0; len(got) < n; si++ {
				size := sizes[si%len(sizes)]
				if rem := n - len(got); size > rem {
					size = rem
				}
				buf := make([]Access, size)
				k := NextBatch(g, buf)
				if k == 0 {
					t.Fatalf("NextBatch stream ended at %d", len(got))
				}
				got = append(got, buf[:k]...)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("access %d: batch %+v != one-access %+v", i, got[i], want[i])
				}
			}
		})
	}
}

// TestCheckpointReplay pins the replay contract for every catalog
// generator: NewAt(Checkpoint()) continues the stream exactly where the
// original generator is, for any mix of batch sizes, one-access batches
// included.
func TestCheckpointReplay(t *testing.T) {
	const prefix, tail = 10_000, 5_000
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			g := MustNew(name, ScaleTiny, 5)
			defer g.Close()
			// Consume the prefix in one large batch and then one access at a
			// time, so Consumed counts both.
			buf := make([]Access, prefix/2)
			if k := NextBatch(g, buf); k != len(buf) {
				t.Fatalf("NextBatch = %d, want %d", k, len(buf))
			}
			for i := 0; i < prefix-len(buf); i++ {
				if _, ok := next(g); !ok {
					t.Fatal("stream ended in prefix")
				}
			}
			cp, ok := CheckpointOf(g)
			if !ok {
				t.Fatalf("%s does not support checkpoints", name)
			}
			if cp.Consumed != prefix {
				t.Fatalf("Consumed = %d, want %d", cp.Consumed, prefix)
			}
			replay, err := NewAt(cp)
			if err != nil {
				t.Fatal(err)
			}
			defer replay.Close()
			for i := 0; i < tail; i++ {
				want, ok1 := next(g)
				got, ok2 := next(replay)
				if !ok1 || !ok2 {
					t.Fatalf("stream ended at tail access %d", i)
				}
				if got != want {
					t.Fatalf("tail access %d: replay %+v != original %+v", i, got, want)
				}
			}
		})
	}
}

// TestCheckpointIdentity: the checkpoint carries the catalog identity it
// was built with, and non-catalog generators refuse to checkpoint.
func TestCheckpointIdentity(t *testing.T) {
	g := MustNew("redis", ScaleTiny, 42)
	defer g.Close()
	cp, ok := CheckpointOf(g)
	if !ok {
		t.Fatal("catalog generator must checkpoint")
	}
	if cp.Name != "redis" || cp.Scale != ScaleTiny || cp.Seed != 42 || cp.Consumed != 0 {
		t.Errorf("checkpoint identity = %+v", cp)
	}
}
