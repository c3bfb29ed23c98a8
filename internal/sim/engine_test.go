package sim

import (
	"reflect"
	"testing"

	"m5/internal/baseline"
	m5mgr "m5/internal/m5"
	"m5/internal/obs"
	"m5/internal/tiermem"
	"m5/internal/trace"
	"m5/internal/tracker"
	"m5/internal/workload"
	"m5/internal/workload/tape"
)

// runUnbatched mirrors Run's span accounting but advances the machine one
// Step at a time — the reference the batched engine must match exactly.
func runUnbatched(r *Runner, n int) Result {
	span := r.beginSpan()
	for i := 0; i < n && r.Step(); i++ {
	}
	return r.endSpan(span)
}

// countingSink records how many DRAM accesses it observed; it adds no
// simulated time, so batched and unbatched runs must feed it identically.
type countingSink struct {
	n    uint64
	last trace.Access
}

func (s *countingSink) Observe(a trace.Access) { s.n++; s.last = a }

// stepCase is one machine shape for TestStepBatchMatchesStep: cfg
// mutates the config before NewRunner and arm installs daemons and sinks
// after, so the batched and Step-driven runners are built identically.
type stepCase struct {
	name  string
	bench string
	sink  bool // attach a countingSink and compare what it saw
	tape  bool // replay the stream from a shared tape pool
	cfg   func(c *Config)
	arm   func(r *Runner)
}

func armM5(r *Runner) {
	r.SetDaemon(m5mgr.NewManager(r.Sys, r.Ctrl, m5mgr.ManagerConfig{Mode: m5mgr.HPTOnly}))
}

// stepCases covers every path the batched loop hoists or guards: bare
// runs, tick-driven daemons (M5/HPT), fault-hook daemons with inline
// promotion (ANB), a kernel-charging miss sink that is also the daemon
// (PEBS), op-latency streams (redis), the row-buffer DRAM model with
// next-line prefetch, frequent context-switch flushes, and tape replay.
func stepCases() []stepCase {
	return []stepCase{
		{name: "bare", bench: "roms"},
		{name: "kvs-daemon-sink", bench: "redis", sink: true, arm: armM5},
		{name: "anb-faults", bench: "mcf",
			arm: func(r *Runner) {
				r.SetDaemon(baseline.NewANB(r.Sys, baseline.ANBConfig{
					PeriodNs: 500_000, SamplePages: 64, Migrate: true,
				}))
			}},
		{name: "pebs-sink", bench: "redis",
			arm: func(r *Runner) {
				p := baseline.NewPEBS(r.Sys, baseline.PEBSConfig{SampleRate: 10, Migrate: true})
				r.AttachMissSink(p)
				r.SetDaemon(p)
			}},
		{name: "rowbuffer-prefetch", bench: "bfs",
			cfg: func(c *Config) {
				c.RowBuffer = true
				c.Cache = NewScaledCache(1 << 24)
				c.Cache.NextLinePrefetch = true
			}},
		{name: "ctx-short", bench: "cc", arm: armM5,
			cfg: func(c *Config) { c.CtxSwitchPeriodNs = 60_000 }},
		{name: "tape", bench: "redis", tape: true, sink: true, arm: armM5},
	}
}

// buildStepRunner assembles one runner of the case's shape. pool, when
// non-nil, serves the access stream from a tape.
func buildStepRunner(t *testing.T, tc stepCase, metrics *obs.Registry, pool *tape.Pool) (*Runner, *countingSink) {
	t.Helper()
	var wl workload.Generator
	var err error
	if pool != nil {
		wl, err = pool.Open(tc.bench, workload.ScaleTiny, 9)
	} else {
		wl, err = workload.New(tc.bench, workload.ScaleTiny, 9)
	}
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Workload: wl,
		HPT:      &tracker.Config{Algorithm: tracker.SpaceSaving, Entries: 128, K: 5},
		Metrics:  metrics,
	}
	if tc.cfg != nil {
		tc.cfg(&cfg)
	}
	r, err := NewRunner(cfg)
	if err != nil {
		wl.Close()
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	var sink *countingSink
	if tc.sink {
		sink = &countingSink{}
		r.AttachMissSink(sink)
	}
	if tc.arm != nil {
		tc.arm(r)
	}
	return r, sink
}

// TestStepBatchMatchesStep pins the batched engine's equivalence claim:
// Run (which drives StepBatch) and a Step loop with identical accounting
// produce byte-identical Results — obs snapshots included — and clocks
// from identical machines, for every machine shape in stepCases.
func TestStepBatchMatchesStep(t *testing.T) {
	for _, tc := range stepCases() {
		t.Run(tc.name, func(t *testing.T) {
			const n = 400_000
			var pool *tape.Pool
			if tc.tape {
				pool = tape.NewPool(0, nil)
				t.Cleanup(pool.Close)
			}
			batched, bSink := buildStepRunner(t, tc, obs.New(), pool)
			unbatched, uSink := buildStepRunner(t, tc, obs.New(), pool)
			got := batched.Run(n)
			want := runUnbatched(unbatched, n)
			if got.Obs == nil || len(got.Obs.Counters) == 0 {
				t.Fatal("batched run produced no obs snapshot")
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("batched Run diverged from Step loop:\n got %+v\nwant %+v", got, want)
			}
			if batched.clockNs != unbatched.clockNs {
				t.Errorf("clock diverged: %d vs %d", batched.clockNs, unbatched.clockNs)
			}
			if tc.sink {
				if bSink.n == 0 {
					t.Fatal("sink saw no traffic")
				}
				if bSink.n != uSink.n || bSink.last != uSink.last {
					t.Errorf("sink streams diverged: %d/%+v vs %d/%+v", bSink.n, bSink.last, uSink.n, uSink.last)
				}
			}
		})
	}

	// The batched loop never holds pulled-but-unexecuted accesses across
	// StepBatch calls: uneven spans (as warmup + measurement loops split
	// a run) land on the Step loop's state, and the generator checkpoint
	// stays in lockstep with the executed count. Checkpoints need a bare
	// runner (no daemon, no metrics).
	t.Run("split-spans", func(t *testing.T) {
		tc := stepCase{bench: "roms", cfg: func(c *Config) { c.CtxSwitchPeriodNs = 60_000 }}
		split, _ := buildStepRunner(t, tc, nil, nil)
		ref, _ := buildStepRunner(t, tc, nil, nil)
		total := 0
		for _, span := range []int{1, 999, 17, 100_000, 1, 198_982} {
			split.Run(span)
			total += span
		}
		runUnbatched(ref, total)
		if split.clockNs != ref.clockNs || split.accesses != ref.accesses ||
			split.Sys.KernelNs() != ref.Sys.KernelNs() ||
			split.dramReads != ref.dramReads || split.dramWrites != ref.dramWrites {
			t.Errorf("split spans diverged from the Step loop: clock %d vs %d, accesses %d vs %d",
				split.clockNs, ref.clockNs, split.accesses, ref.accesses)
		}
		cp, err := split.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if cp.gen.Consumed != split.accesses {
			t.Errorf("batched loop buffered ahead: consumed %d, executed %d", cp.gen.Consumed, split.accesses)
		}
	})
}

// TestRunBatchZeroAllocs pins the batched hot loop at zero allocations per
// batch once the machine is warm: the engine reuses its access buffer and
// scratch trace record, and every layer below it (cache, TLB, nodes,
// trackers) runs on preallocated state.
func TestRunBatchZeroAllocs(t *testing.T) {
	wl := workload.MustNew("roms", workload.ScaleTiny, 1)
	r, err := NewRunner(Config{
		Workload: wl,
		HPT:      &tracker.Config{Algorithm: tracker.SpaceSaving, Entries: 128, K: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.Run(200_000) // fault in the arena and reach steady state

	buf := make([]workload.Access, runnerBatch)
	n := workload.NextBatch(r.gen, buf)
	if n != runnerBatch {
		t.Fatalf("NextBatch = %d, want %d", n, runnerBatch)
	}
	allocs := testing.AllocsPerRun(50, func() {
		r.runBatch(buf[:n])
	})
	if allocs != 0 {
		t.Errorf("runBatch allocates %.1f objects per batch, want 0", allocs)
	}
}

// TestCheckpointForkDeterminism pins the warmup-sharing contract: a fork
// continues bit-identically to (a) a from-scratch runner warmed the same
// way — including when both install the same daemon at the warmup boundary
// — and (b) the original runner the checkpoint was taken from.
func TestCheckpointForkDeterminism(t *testing.T) {
	const warmup, measure = 150_000, 250_000
	cfg := func() Config {
		return Config{
			Workload: workload.MustNew("roms", workload.ScaleTiny, 1),
			HPT:      &tracker.Config{Algorithm: tracker.SpaceSaving, Entries: 128, K: 5},
		}
	}
	warm, err := NewRunner(cfg())
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	warm.Run(warmup)
	cp, err := warm.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	// (a) daemon installed on the fork at the checkpoint == daemon
	// installed on a from-scratch runner at the warmup boundary.
	fork, err := cp.Fork()
	if err != nil {
		t.Fatal(err)
	}
	defer fork.Close()
	fork.SetDaemon(m5mgr.NewManager(fork.Sys, fork.Ctrl, m5mgr.ManagerConfig{Mode: m5mgr.HPTOnly}))
	scratch, err := NewRunner(cfg())
	if err != nil {
		t.Fatal(err)
	}
	defer scratch.Close()
	scratch.Run(warmup)
	scratch.SetDaemon(m5mgr.NewManager(scratch.Sys, scratch.Ctrl, m5mgr.ManagerConfig{Mode: m5mgr.HPTOnly}))
	forkRes, scratchRes := fork.Run(measure), scratch.Run(measure)
	if !reflect.DeepEqual(forkRes, scratchRes) {
		t.Errorf("fork diverged from from-scratch warmup:\n got %+v\nwant %+v", forkRes, scratchRes)
	}
	if forkRes.Promotions == 0 {
		t.Error("daemon on fork migrated nothing — test exercises too little")
	}

	// (b) a bare fork continues exactly like the original runner.
	fork2, err := cp.Fork()
	if err != nil {
		t.Fatal(err)
	}
	defer fork2.Close()
	origRes, fork2Res := warm.Run(measure), fork2.Run(measure)
	if !reflect.DeepEqual(origRes, fork2Res) {
		t.Errorf("fork diverged from original:\n got %+v\nwant %+v", fork2Res, origRes)
	}
}

// TestCheckpointRefusesExternalState: state the deep clone cannot reach
// must be rejected, not silently dropped.
func TestCheckpointRefusesExternalState(t *testing.T) {
	t.Run("daemon", func(t *testing.T) {
		r := newRunner(t, "roms", Config{})
		r.SetDaemon(stubPolicy{})
		if _, err := r.Checkpoint(); err == nil {
			t.Error("daemon-carrying runner must refuse to checkpoint")
		}
	})
	t.Run("miss-sink", func(t *testing.T) {
		r := newRunner(t, "roms", Config{})
		r.AttachMissSink(&countingSink{})
		if _, err := r.Checkpoint(); err == nil {
			t.Error("sink-carrying runner must refuse to checkpoint")
		}
	})
	t.Run("row-buffer", func(t *testing.T) {
		r := newRunner(t, "roms", Config{RowBuffer: true})
		if _, err := r.Checkpoint(); err == nil {
			t.Error("row-buffer runner must refuse to checkpoint")
		}
	})
}

func benchRunner(b *testing.B) *Runner {
	b.Helper()
	wl := workload.MustNew("roms", workload.ScaleTiny, 1)
	r, err := NewRunner(Config{Workload: wl})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(r.Close)
	r.Run(100_000) // fault in the arena so the loop measures steady state
	return r
}

func BenchmarkRunnerStep(b *testing.B) {
	r := benchRunner(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !r.Step() {
			b.Fatal("stream ended")
		}
	}
}

func BenchmarkRunnerStepBatch(b *testing.B) {
	r := benchRunner(b)
	b.ResetTimer()
	for left := b.N; left > 0; {
		did := r.StepBatch(left)
		if did == 0 {
			b.Fatal("stream ended")
		}
		left -= did
	}
}

// stubPolicy is the smallest possible Daemon (= tiermem.Policy): it shows
// the checkpoint gate fires on any installed daemon, not just real ones.
type stubPolicy struct{}

func (stubPolicy) Name() string               { return "stub" }
func (stubPolicy) PeriodNs() uint64           { return 1_000_000 }
func (stubPolicy) Tick(uint64)                {}
func (stubPolicy) Stats() tiermem.PolicyStats { return tiermem.PolicyStats{} }
