package sim

import (
	"reflect"
	"testing"

	"m5/internal/baseline"
	"m5/internal/cache"
	m5mgr "m5/internal/m5"
	"m5/internal/obs"
	"m5/internal/tiermem"
	"m5/internal/trace"
	"m5/internal/tracker"
	"m5/internal/workload"
	"m5/internal/workload/tape"
)

// Step executes exactly one access of this core and returns false when
// its stream has ended. It is the per-access reference the batched
// engine must match: the same machine written out without hoisting,
// batching or the latency tables.
func (r *Runner) Step() bool {
	a, ok := r.gen.Next()
	if !ok {
		return false
	}
	r.accesses++
	kernelBefore := r.Sys.KernelNs()
	va := r.base.Addr() + tiermem.VirtAddr(a.Offset)
	tr := r.Sys.Translate(r.id, va, a.Write)
	r.clockNs += tr.ExtraNs

	res := r.Cache.Access(tr.Phys, a.Write)
	switch res.Level {
	case cache.HitL1:
		r.clockNs += r.costs.L1HitNs
	case cache.HitL2:
		r.clockNs += r.costs.L2HitNs
	case cache.HitLLC:
		r.clockNs += r.costs.LLCHitNs
	case cache.HitMemory:
		node := r.Sys.NodeOfAddr(tr.Phys)
		if r.remap != nil {
			served, extra := r.remap.Serve(tr.Phys.Word(), node)
			r.clockNs += extra
			node = served
		}
		r.Sys.Node(node).CountRead()
		r.dramReads[node]++
		if r.queue != nil {
			r.clockNs += r.queue[node].serve(r.clockNs)
		}
		if node == tiermem.NodeCXL {
			r.clockNs += r.costs.CXLReadNs
			r.Ctrl.Device.Access(trace.Access{Time: r.clockNs, Addr: tr.Phys, Write: a.Write})
		} else {
			r.clockNs += r.costs.DDRReadNs
		}
		r.sinks.Observe(trace.Access{Time: r.clockNs, Addr: tr.Phys, Write: a.Write})
	}
	for _, wb := range res.Writeback {
		node := r.Sys.CountDRAMAccess(wb, true)
		r.dramWrites[node]++
		r.clockNs += r.costs.DRAMWriteNs
		if r.queue != nil {
			r.queue[node].serve(r.clockNs)
		}
		if node == tiermem.NodeCXL {
			r.Ctrl.Device.Access(trace.Access{Time: r.clockNs, Addr: wb, Write: true})
		}
		r.sinks.Observe(trace.Access{Time: r.clockNs, Addr: wb, Write: true})
	}

	if a.OpEnd {
		r.opLat.Add(float64(r.clockNs - r.opStart))
		r.opStart = r.clockNs
	}
	if r.ctxNs > 0 && r.clockNs >= r.nextCtx {
		r.Sys.TLB(r.id).Flush()
		r.nextCtx = r.clockNs + r.ctxNs
	}
	if r.daemon != nil && r.clockNs >= r.nextTick {
		tickKernelBefore := r.Sys.KernelNs()
		r.daemon.Tick(r.clockNs)
		r.nextTick = r.clockNs + r.daemon.PeriodNs()
		r.obsTickKernel.Observe(r.Sys.KernelNs() - tickKernelBefore)
	}
	r.clockNs += r.Sys.KernelNs() - kernelBefore
	return true
}

// runUnbatched mirrors Run's span accounting but advances the machine one
// Step at a time — the reference the batched engine must match exactly.
// On a co-running machine every step goes to the core with the smallest
// clock, ties to the lower index, until each core has run n accesses.
func runUnbatched(r *Runner, n int) Result {
	span := r.beginSpan()
	left := make([]int, len(r.cores))
	for i := range left {
		left[i] = n
	}
	for {
		pick := -1
		for i, c := range r.cores {
			if left[i] > 0 && (pick < 0 || c.clockNs < r.cores[pick].clockNs) {
				pick = i
			}
		}
		if pick < 0 {
			break
		}
		if r.cores[pick].Step() {
			left[pick]--
		} else {
			left[pick] = 0
		}
	}
	return r.endSpan(span)
}

// countingSink records how many DRAM accesses it observed, the last one,
// and a hash of the whole stream; it adds no simulated time, so runs that
// must agree have to feed it identically.
type countingSink struct {
	n    uint64
	last trace.Access
	hash uint64
}

func (s *countingSink) Observe(a trace.Access) {
	s.n++
	s.last = a
	w := uint64(0)
	if a.Write {
		w = 1
	}
	for _, v := range [...]uint64{a.Time, uint64(a.Addr), w} {
		s.hash = (s.hash ^ v) * 0x100000001b3 // one FNV-1a step per field
	}
}

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
// (PEBS), op-latency streams (redis), frequent context-switch flushes,
// and tape replay.
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
// Run (which drives stepBatch) and a Step loop with identical accounting
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
				if *bSink != *uSink {
					t.Errorf("sink streams diverged: %+v vs %+v", *bSink, *uSink)
				}
			}
		})
	}

	// The batched loop never holds pulled-but-unexecuted accesses across
	// stepBatch calls: uneven spans (as warmup + measurement loops split
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

// coCase is one co-running machine shape for TestCoRunningMatchesStep:
// cores copies of bench on seeds 1..cores, queued like ext-contention's
// machines. cfg mutates the config before NewRunner and arm installs
// daemons and sinks after.
type coCase struct {
	name  string
	bench string
	cores int
	sink  bool
	cfg   func(c *Config)
	arm   func(r *Runner)
}

// armContentionM5 installs ext-contention's M5 manager; the HPT it reads
// is set by withContentionHPT.
func armContentionM5(r *Runner) {
	r.SetDaemon(m5mgr.NewManager(r.Sys, r.Ctrl, m5mgr.ManagerConfig{Mode: m5mgr.HPTOnly}))
}

func withContentionHPT(c *Config) {
	c.HPT = &tracker.Config{Algorithm: tracker.CMSketch, Entries: 32 * 1024, K: 64}
}

// buildCoRunner assembles one co-running machine of the case's shape.
func buildCoRunner(t *testing.T, tc coCase, metrics *obs.Registry) (*Runner, *countingSink) {
	t.Helper()
	streams := make([]workload.Generator, tc.cores)
	for i := range streams {
		streams[i] = workload.MustNew(tc.bench, workload.ScaleTiny, int64(i+1))
	}
	cfg := Config{Workload: streams[0], CoRunning: streams[1:], Bandwidth: true, Metrics: metrics}
	if tc.cfg != nil {
		tc.cfg(&cfg)
	}
	r, err := NewRunner(cfg)
	if err != nil {
		for _, g := range streams {
			g.Close()
		}
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

// TestCoRunningMatchesStep pins the co-running scheduler: Run on a
// machine of N cores (one-access turns over each core's pulled batch)
// equals a per-access min-clock loop over Step — Result with obs
// snapshot, every core's clock, and the sink stream — across two spans,
// so accesses a core pulled but did not run carry over correctly.
func TestCoRunningMatchesStep(t *testing.T) {
	m5 := func(name, bench string, cores int) coCase {
		return coCase{name: name, bench: bench, cores: cores, cfg: withContentionHPT, arm: armContentionM5}
	}
	cases := []coCase{
		{name: "mcf-x2", bench: "mcf", cores: 2},
		m5("mcf-x2-m5", "mcf", 2),
		{name: "mcf-x4", bench: "mcf", cores: 4},
		m5("mcf-x4-m5", "mcf", 4),
		{name: "mcf-x8", bench: "mcf", cores: 8},
		m5("mcf-x8-m5", "mcf", 8),
		{name: "redis-x2-ops", bench: "redis", cores: 2},
		{name: "pebs-sink", bench: "redis", cores: 2, sink: true,
			arm: func(r *Runner) {
				p := baseline.NewPEBS(r.Sys, baseline.PEBSConfig{SampleRate: 10, Migrate: true})
				r.AttachMissSink(p)
				r.SetDaemon(p)
			}},
		{name: "ctx-short", bench: "cc", cores: 4, arm: armContentionM5,
			cfg: func(c *Config) {
				withContentionHPT(c)
				c.CtxSwitchPeriodNs = 60_000
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			batched, bSink := buildCoRunner(t, tc, obs.New())
			ref, rSink := buildCoRunner(t, tc, obs.New())
			for _, n := range []int{7_777, 40_000} {
				got, want := batched.Run(n), runUnbatched(ref, n)
				if got.Accesses != uint64(n*tc.cores) {
					t.Fatalf("span ran %d accesses, want %d", got.Accesses, n*tc.cores)
				}
				if tc.bench == "redis" && got.OpCount == 0 {
					t.Error("KVS cores reported no op latency")
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("co-running Run diverged from the Step loop:\n got %+v\nwant %+v", got, want)
				}
			}
			for i, c := range batched.cores {
				if c.clockNs != ref.cores[i].clockNs {
					t.Errorf("core %d clock diverged: %d vs %d", i, c.clockNs, ref.cores[i].clockNs)
				}
			}
			if tc.arm != nil && batched.Sys.Promotions() == 0 {
				t.Error("the daemon migrated nothing — the case exercises too little")
			}
			if last := batched.cores[tc.cores-1]; last.nextCtx == last.ctxNs {
				t.Error("the last core never flushed its TLB")
			}
			if tc.sink {
				if bSink.n == 0 {
					t.Fatal("sink saw no traffic")
				}
				if *bSink != *rSink {
					t.Errorf("sink streams diverged: %+v vs %+v", *bSink, *rSink)
				}
			}
		})
	}
}

// TestSampledSkipMatchesFallback pins the sampled tier's skip fast path
// against its fallback over every stepCases shape: a runner fed by a tape
// cursor skips thinned batches through Cursor.Skip, one fed by a live
// generator reads them with NextBatch and scans for op ends, and the two
// must agree on the Result (SamplingInfo and obs snapshot included), the
// clock, and the sink stream.
func TestSampledSkipMatchesFallback(t *testing.T) {
	smp := SamplingConfig{Mode: SampleModeSampled, DetailedWindow: 1024, FunctionalStride: 7168}
	for _, tc := range stepCases() {
		t.Run(tc.name, func(t *testing.T) {
			const n = 400_000
			shape := tc.cfg
			tc.cfg = func(c *Config) {
				if shape != nil {
					shape(c)
				}
				c.Sampling = smp
			}
			pool := tape.NewPool(0, nil)
			t.Cleanup(pool.Close)
			taped, tSink := buildStepRunner(t, tc, obs.New(), pool)
			live, lSink := buildStepRunner(t, tc, obs.New(), nil)
			if _, ok := taped.gen.(workload.Skipper); !ok {
				t.Fatal("tape-fed runner has no skip fast path")
			}
			if _, ok := live.gen.(workload.Skipper); ok {
				t.Fatal("live-fed runner should take the fallback")
			}
			got, want := taped.Run(n), live.Run(n)
			if got.Sampling == nil || got.Sampling.AccessesSkipped == 0 {
				t.Fatalf("no batch was skipped: %+v", got.Sampling)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("tape skip diverged from the fallback:\n got %+v %+v\nwant %+v %+v",
					got, *got.Sampling, want, *want.Sampling)
			}
			if taped.clockNs != live.clockNs || taped.opStart != live.opStart {
				t.Errorf("clock/op origin diverged: %d/%d vs %d/%d",
					taped.clockNs, taped.opStart, live.clockNs, live.opStart)
			}
			if tc.sink && *tSink != *lSink {
				t.Errorf("sink streams diverged: %+v vs %+v", *tSink, *lSink)
			}
		})
	}
}

// TestRunBatchZeroAllocs pins the batched hot loop at zero allocations per
// batch once the machine is warm: the engine reuses its access buffer and
// scratch trace record, and every layer below it (cache, TLB, nodes,
// trackers, bandwidth queues) runs on preallocated state — on a lone core
// and on a co-running one.
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

	co, _ := buildCoRunner(t, coCase{bench: "roms", cores: 2, cfg: withContentionHPT, arm: armContentionM5}, nil)
	co.Run(100_000)
	core := co.cores[1]
	if n = workload.NextBatch(core.gen, buf); n != runnerBatch {
		t.Fatalf("NextBatch = %d, want %d", n, runnerBatch)
	}
	allocs = testing.AllocsPerRun(50, func() {
		core.runBatch(buf[:n])
	})
	if allocs != 0 {
		t.Errorf("co-running runBatch allocates %.1f objects per batch, want 0", allocs)
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
	t.Run("bandwidth", func(t *testing.T) {
		r := newRunner(t, "roms", Config{Bandwidth: true})
		if _, err := r.Checkpoint(); err == nil {
			t.Error("queued runner must refuse to checkpoint")
		}
	})
	t.Run("co-running", func(t *testing.T) {
		r, _ := buildCoRunner(t, coCase{bench: "roms", cores: 2, cfg: func(c *Config) { c.Bandwidth = false }}, nil)
		if _, err := r.Checkpoint(); err == nil {
			t.Error("co-running machine must refuse to checkpoint")
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
		did := r.stepBatch(left)
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
