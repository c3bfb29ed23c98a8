package sim

import (
	"testing"

	"m5/internal/baseline"
	m5mgr "m5/internal/m5"
	"m5/internal/tiermem"
	"m5/internal/tracker"
	"m5/internal/workload"
)

func newRunner(t *testing.T, bench string, cfg Config) *Runner {
	t.Helper()
	if cfg.Workload == nil {
		cfg.Workload = workload.MustNew(bench, workload.ScaleTiny, 1)
	}
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

func TestRunnerBasics(t *testing.T) {
	r := newRunner(t, "redis", Config{})
	res := r.Run(200_000)
	if res.Accesses != 200_000 {
		t.Fatalf("Accesses = %d", res.Accesses)
	}
	if res.ElapsedNs == 0 || res.AccessesPerSec == 0 {
		t.Error("time must advance")
	}
	if res.Daemon != "none" {
		t.Errorf("Daemon = %q", res.Daemon)
	}
	// All pages start on CXL, so early DRAM traffic is CXL-only.
	if res.DRAMReads[tiermem.NodeCXL] == 0 {
		t.Error("expected CXL DRAM reads")
	}
	if res.DRAMReads[tiermem.NodeDDR] != 0 {
		t.Error("no DDR reads without migration")
	}
	if res.CXLReadShare() != 1 {
		t.Errorf("CXLReadShare = %v", res.CXLReadShare())
	}
	// Redis carries op markers.
	if res.OpCount == 0 || res.P99OpNs < res.P50OpNs {
		t.Errorf("op latency: count=%d p50=%v p99=%v", res.OpCount, res.P50OpNs, res.P99OpNs)
	}
}

func TestRunnerRequiresWorkload(t *testing.T) {
	if _, err := NewRunner(Config{}); err == nil {
		t.Error("missing workload should error")
	}
}

func TestCacheFiltersTraffic(t *testing.T) {
	r := newRunner(t, "pr", Config{})
	res := r.Run(300_000)
	dram := res.DRAMReads[0] + res.DRAMReads[1]
	if dram == 0 {
		t.Fatal("no DRAM traffic at all")
	}
	if dram >= res.Accesses {
		t.Errorf("cache filtered nothing: %d DRAM reads for %d accesses", dram, res.Accesses)
	}
}

func TestNoMigrationVsM5(t *testing.T) {
	// The headline Figure 9 property in miniature: with a skewed
	// workload, M5 migration beats no migration on elapsed time.
	run := func(withM5 bool) Result {
		wl := workload.MustNew("roms", workload.ScaleTiny, 1)
		r, err := NewRunner(Config{
			Workload: wl,
			HPT:      &tracker.Config{Algorithm: tracker.CMSketch, Entries: 32 * 1024, K: 64},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if withM5 {
			mgr := m5mgr.NewManager(r.Sys, r.Ctrl, m5mgr.ManagerConfig{Mode: m5mgr.HPTOnly})
			r.SetDaemon(mgr)
		}
		r.Run(500_000) // warm-up: let migration reach steady state
		return r.Run(1_500_000)
	}
	none := run(false)
	withM5 := run(true)
	if withM5.Promotions == 0 {
		t.Fatal("M5 migrated nothing")
	}
	speedup := withM5.Speedup(none)
	if speedup <= 1.0 {
		t.Errorf("M5 speedup = %.3f, want > 1", speedup)
	}
	if withM5.CXLReadShare() >= none.CXLReadShare() {
		t.Error("migration should shift reads to DDR")
	}
}

func TestDaemonInterferenceCostsTime(t *testing.T) {
	// §4.2: identification overhead with migration disabled slows the
	// workload. DAMON in profile mode burns kernel time scanning PTEs.
	run := func(withDaemon bool) Result {
		wl := workload.MustNew("redis", workload.ScaleTiny, 1)
		r, err := NewRunner(Config{Workload: wl})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if withDaemon {
			r.SetDaemon(baseline.NewDAMON(r.Sys, baseline.DAMONConfig{
				PeriodNs: 200_000, AggregationTicks: 4,
			}))
		}
		return r.Run(800_000)
	}
	without := run(false)
	with := run(true)
	if with.KernelNs <= without.KernelNs {
		t.Error("DAMON should consume kernel time")
	}
	if with.ElapsedNs <= without.ElapsedNs {
		t.Error("identification overhead should slow the workload")
	}
	if with.Promotions != 0 {
		t.Error("profiling mode must not migrate")
	}
}

func TestANBEndToEnd(t *testing.T) {
	wl := workload.MustNew("mcf", workload.ScaleTiny, 1)
	r, err := NewRunner(Config{Workload: wl})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.SetDaemon(baseline.NewANB(r.Sys, baseline.ANBConfig{
		PeriodNs: 500_000, SamplePages: 64, Migrate: true,
	}))
	res := r.Run(2_000_000)
	if res.Promotions == 0 {
		t.Error("ANB should have promoted pages")
	}
	if res.DRAMReads[tiermem.NodeDDR] == 0 {
		t.Error("promoted pages should serve DDR reads")
	}
}

func TestPEBSAttachesAsMissSink(t *testing.T) {
	wl := workload.MustNew("mcf", workload.ScaleTiny, 1)
	r, err := NewRunner(Config{Workload: wl})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	p := baseline.NewPEBS(r.Sys, baseline.PEBSConfig{SampleRate: 10, Migrate: true})
	r.AttachMissSink(p)
	r.SetDaemon(p)
	res := r.Run(2_000_000)
	if p.Samples() == 0 {
		t.Fatal("PEBS saw no miss stream")
	}
	if res.Promotions == 0 {
		t.Error("PEBS should promote sampled-hot pages")
	}
}

func TestPACSeesOnlyCXLTraffic(t *testing.T) {
	wl := workload.MustNew("redis", workload.ScaleTiny, 1)
	r, err := NewRunner(Config{Workload: wl, EnablePAC: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	res := r.Run(400_000)
	pacTotal := r.Ctrl.PAC.Total()
	want := res.DRAMReads[tiermem.NodeCXL] + res.DRAMWrites[tiermem.NodeCXL]
	if pacTotal != want {
		t.Errorf("PAC counted %d, want %d (CXL reads+writes)", pacTotal, want)
	}
}

// countOpEnds counts the operation ends among accesses [skip, skip+n) of
// a fresh generator of bench at seed.
func countOpEnds(t *testing.T, bench string, seed int64, skip, n int) uint64 {
	t.Helper()
	g := workload.MustNew(bench, workload.ScaleTiny, seed)
	defer g.Close()
	buf := make([]workload.Access, runnerBatch)
	var ops uint64
	for pos := 0; pos < skip+n; {
		k := workload.NextBatch(g, buf[:min(len(buf), skip+n-pos)])
		if k == 0 {
			t.Fatalf("%s stream ended after %d accesses", bench, pos)
		}
		for i, a := range buf[:k] {
			if a.OpEnd && pos+i >= skip {
				ops++
			}
		}
		pos += k
	}
	return ops
}

// TestOpCountCountsEveryOperation: OpCount is the number of operations
// the span completed, not the op-latency reservoir's retained sample,
// which stops at 32768 per core.
func TestOpCountCountsEveryOperation(t *testing.T) {
	const warmup, span = 100_000, 500_000
	t.Run("single", func(t *testing.T) {
		r := newRunner(t, "redis", Config{})
		r.Run(warmup)
		res := r.Run(span)
		want := countOpEnds(t, "redis", 1, warmup, span)
		if res.OpCount != want {
			t.Errorf("OpCount = %d, want %d", res.OpCount, want)
		}
		if res.OpCount <= 1<<15 {
			t.Errorf("OpCount = %d does not exceed the reservoir's 32768 samples", res.OpCount)
		}
	})
	t.Run("co-running", func(t *testing.T) {
		r, _ := buildCoRunner(t, coCase{bench: "redis", cores: 2}, nil)
		r.Run(warmup)
		res := r.Run(span)
		want := countOpEnds(t, "redis", 1, warmup, span) + countOpEnds(t, "redis", 2, warmup, span)
		if res.OpCount != want {
			t.Errorf("OpCount = %d, want %d summed over both cores", res.OpCount, want)
		}
	})
}

func TestDeterminism(t *testing.T) {
	run := func() Result {
		wl := workload.MustNew("cc", workload.ScaleTiny, 7)
		r, err := NewRunner(Config{Workload: wl})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		return r.Run(300_000)
	}
	a, b := run(), run()
	if a.ElapsedNs != b.ElapsedNs || a.DRAMReads != b.DRAMReads {
		t.Errorf("same seed must reproduce identical runs: %+v vs %+v", a, b)
	}
}

func TestScaledCacheClamps(t *testing.T) {
	small := newScaledCache(1 << 12)
	if small.LLCWayBytes*small.LLCWays < 64<<10 {
		t.Error("LLC should clamp up to 64KB")
	}
	huge := newScaledCache(1 << 40)
	if huge.LLCWayBytes*huge.LLCWays > 8<<20 {
		t.Error("LLC should clamp down to 8MB")
	}
}
