package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	m5mgr "m5/internal/m5"
	"m5/internal/policy"
	"m5/internal/sketch"
	"m5/internal/tracker"
	"m5/internal/workload"
	"m5/internal/workload/tape"
)

// forkOutcome is what one continuation from a checkpoint produced: the
// span's Result and the exact profilers' hottest keys, which no Result
// field reads.
type forkOutcome struct {
	Res      Result
	PAC, WAC []sketch.KeyCount
}

// continueRun installs the M5 manager, which queries both trackers, runs
// n accesses and closes the runner.
func continueRun(r *Runner, n int) forkOutcome {
	defer r.Close()
	r.SetDaemon(m5mgr.NewManager(r.Sys, r.Ctrl, m5mgr.ManagerConfig{Mode: m5mgr.HPTDriven}))
	return forkOutcome{Res: r.Run(n), PAC: r.Ctrl.PAC.TopK(8), WAC: r.Ctrl.WAC.TopK(8)}
}

// TestForkAnywhereMatchesContinuation pins the fork contract at arbitrary
// positions across the catalog. Each registered workload warms a machine
// carrying PAC, WAC, an HPT and an HWT to a seeded random position, and
// checkpoints it. The original then runs on, and after it two successive
// forks; with the same daemon installed, all three must return the same
// outcome. A clone that shares any state with its source lets an earlier
// run leak into a later one. The tracker algorithm cycles across
// workloads, so every tracker counter's Clone runs, and redis passes the
// op-latency reservoir's capacity within the span, so a fork's reservoir
// replays its RNG. A huge-page machine and a sampled machine ride along;
// the sampled one's forks must carry its latency prior.
func TestForkAnywhereMatchesContinuation(t *testing.T) {
	const span = 200_000
	algs := []tracker.Algorithm{tracker.CMSketch, tracker.SpaceSaving, tracker.StickySampling, tracker.ConservativeCMSketch}
	rng := rand.New(rand.NewSource(27))
	type machine struct {
		name string
		cfg  Config
		warm int
	}
	var machines []machine
	for i, name := range workload.Registered() {
		alg := algs[i%len(algs)]
		machines = append(machines, machine{name + "/" + alg.String(), Config{
			Workload:  workload.MustNew(name, workload.ScaleTiny, 1),
			EnablePAC: true,
			EnableWAC: true,
			HPT:       &tracker.Config{Algorithm: alg, Entries: 512, K: 16},
			HWT:       &tracker.Config{Algorithm: alg, Entries: 512, K: 16},
		}, 1 + rng.Intn(2*span)})
	}
	machines = append(machines,
		machine{"huge-pages/mcf", Config{
			Workload:  workload.MustNew("mcf", workload.ScaleTiny, 1),
			HugePages: true, EnablePAC: true, EnableWAC: true,
			HPT: policy.DefaultHPT(), HWT: &tracker.Config{Algorithm: tracker.StickySampling, Entries: 512, K: 16},
		}, 1 + rng.Intn(2*span)},
		// Two full sampling periods, so the warm span measures a prior.
		machine{"sampled/roms", Config{
			Workload:  workload.MustNew("roms", workload.ScaleTiny, 1),
			EnablePAC: true, EnableWAC: true,
			HPT: policy.DefaultHPT(), HWT: &tracker.Config{Algorithm: tracker.SpaceSaving, Entries: 512, K: 16},
			Sampling: SamplingConfig{Mode: SampleModeSampled},
		}, 2*(defaultDetailedWindow+defaultFunctionalStride) + rng.Intn(span)},
	)
	for _, m := range machines {
		t.Run(m.name, func(t *testing.T) {
			r, err := NewRunner(m.cfg)
			if err != nil {
				t.Fatal(err)
			}
			r.Run(m.warm)
			cp, err := r.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if m.cfg.Sampling.Enabled() && r.estPrior == 0 {
				t.Fatal("the sampled warm span measured no prior")
			}
			want := continueRun(r, span)
			for i := 1; i <= 2; i++ {
				f, err := cp.Fork()
				if err != nil {
					t.Fatal(err)
				}
				if f.estPrior != cp.estPrior {
					t.Fatalf("fork %d: prior %v, checkpoint %v", i, f.estPrior, cp.estPrior)
				}
				if got := continueRun(f, span); !reflect.DeepEqual(got, want) {
					t.Fatalf("fork %d diverged from the original:\n got %+v\nwant %+v", i, got, want)
				}
			}
		})
	}
}

// warmedRunner builds bench's sec42-shaped machine (tiny scale, the
// deployed HPT) on a tape cursor, as the serve tree's machines run, and
// warms it by 200k accesses: the fixture of the fork allocation contract
// and of BenchmarkCheckpointFork. The tape is recorded past the warmup
// first, so no generator goroutine allocates while a caller measures.
func warmedRunner(tb testing.TB, bench string) *Runner {
	tb.Helper()
	const warm = 200_000
	tp, err := tape.Record(bench, workload.ScaleTiny, 1, warm+50_000)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(tp.Close)
	r, err := NewRunner(Config{Workload: tp.NewCursor(), HPT: policy.DefaultHPT()})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(r.Close)
	r.Run(warm)
	return r
}

// allocatedBytes returns the heap bytes f allocates.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestForkAllocatesOneCopy pins that a fork copies the checkpoint's
// machine once and builds nothing else: the bytes one Fork allocates are
// at most the bytes one Checkpoint allocates, plus 64 KiB for the runner,
// its 16 KiB access buffer and the tape cursor.
func TestForkAllocatesOneCopy(t *testing.T) {
	const slack = 64 << 10
	for _, bench := range []string{"mcf", "redis"} {
		t.Run(bench, func(t *testing.T) {
			r := warmedRunner(t, bench)
			var cp *Checkpoint
			cpBytes := allocatedBytes(func() {
				var err error
				if cp, err = r.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			})
			var f *Runner
			forkBytes := allocatedBytes(func() {
				var err error
				if f, err = cp.Fork(); err != nil {
					t.Fatal(err)
				}
			})
			f.Close()
			t.Logf("Checkpoint %d B, Fork %d B", cpBytes, forkBytes)
			if forkBytes > cpBytes+slack {
				t.Errorf("Fork allocates %d B, more than Checkpoint's %d B + %d B", forkBytes, cpBytes, slack)
			}
		})
	}
}

// BenchmarkCheckpointFork times the checkpoint-fork layer on the fork
// allocation contract's fixture: one Checkpoint of the warmed machine,
// and one Fork of its checkpoint.
func BenchmarkCheckpointFork(b *testing.B) {
	for _, bench := range []string{"mcf", "redis"} {
		b.Run(fmt.Sprintf("checkpoint/%s", bench), func(b *testing.B) {
			r := warmedRunner(b, bench)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.Checkpoint(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("fork/%s", bench), func(b *testing.B) {
			cp, err := warmedRunner(b, bench).Checkpoint()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f, err := cp.Fork()
				if err != nil {
					b.Fatal(err)
				}
				f.Close()
			}
		})
	}
}
