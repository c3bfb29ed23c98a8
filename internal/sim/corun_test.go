package sim

import (
	"testing"

	m5mgr "m5/internal/m5"
	"m5/internal/tiermem"
	"m5/internal/tracker"
	"m5/internal/workload"
)

// newCoRunner builds n co-running copies of bench on seeds 1..n with
// bandwidth queues, the shape ext-contention runs.
func newCoRunner(t *testing.T, bench string, n int) *Runner {
	t.Helper()
	r, _ := buildCoRunner(t, coCase{bench: bench, cores: n}, nil)
	return r
}

func TestMultiRunnerBasics(t *testing.T) {
	r := newCoRunner(t, "mcf", 4)
	res := r.Run(100_000)
	if res.Accesses != 400_000 {
		t.Errorf("Accesses = %d, want 400k", res.Accesses)
	}
	if res.ElapsedNs == 0 {
		t.Error("time must advance")
	}
	if res.DRAMReads[tiermem.NodeCXL] == 0 {
		t.Error("expected CXL traffic")
	}
	// Per-core TLBs and arenas: the system has 4 cores.
	if r.Sys.Cores() != 4 || len(r.cores) != 4 {
		t.Errorf("system cores = %d, runner cores = %d", r.Sys.Cores(), len(r.cores))
	}
}

// TestCoRunningSpanDeltas: like a single core, a co-running Run reports
// its own span's accesses and DRAM traffic, not totals since the machine
// was built, and its elapsed time is the slowest core's span.
func TestCoRunningSpanDeltas(t *testing.T) {
	r := newCoRunner(t, "mcf", 2)
	first := r.Run(50_000)
	_, reads, writes := r.traffic()
	clocks := []uint64{r.cores[0].clockNs, r.cores[1].clockNs}
	res := r.Run(50_000)
	if res.Accesses != 100_000 {
		t.Errorf("second span Accesses = %d, want 100000", res.Accesses)
	}
	if want := max(r.cores[0].clockNs-clocks[0], r.cores[1].clockNs-clocks[1]); res.ElapsedNs != want {
		t.Errorf("ElapsedNs = %d, want the slowest core's span %d", res.ElapsedNs, want)
	}
	_, readsEnd, writesEnd := r.traffic()
	for node := range reads {
		if res.DRAMReads[node] != readsEnd[node]-reads[node] || res.DRAMWrites[node] != writesEnd[node]-writes[node] {
			t.Errorf("node %d traffic %d/%d, want the span's %d/%d", node,
				res.DRAMReads[node], res.DRAMWrites[node], readsEnd[node]-reads[node], writesEnd[node]-writes[node])
		}
	}
	if first.DRAMReads[tiermem.NodeCXL] == 0 || res.DRAMReads[tiermem.NodeCXL] == readsEnd[tiermem.NodeCXL] {
		t.Errorf("second span reports cumulative CXL reads: %d", res.DRAMReads[tiermem.NodeCXL])
	}

	// Cores may run different streams: beside a roms core, the mcf core
	// is the slowest and sets the span.
	mixed := newRunner(t, "roms", Config{CoRunning: []workload.Generator{workload.MustNew("mcf", workload.ScaleTiny, 1)}})
	if got := mixed.Run(50_000).ElapsedNs; got != mixed.cores[1].clockNs || got <= mixed.cores[0].clockNs {
		t.Errorf("mixed machine ElapsedNs = %d, want the mcf core's %d (roms core %d)", got, mixed.cores[1].clockNs, mixed.cores[0].clockNs)
	}
}

func TestMultiRunnerConfigValidation(t *testing.T) {
	// A refused config leaves its streams to the caller.
	stream := func(seed int64) workload.Generator {
		g := workload.MustNew("roms", workload.ScaleTiny, seed)
		t.Cleanup(g.Close)
		return g
	}
	smp := SamplingConfig{Mode: SampleModeSampled}
	for name, cfg := range map[string]Config{
		"huge pages on co-running cores": {Workload: stream(1), CoRunning: []workload.Generator{stream(2)}, HugePages: true},
		"sampling co-running cores":      {Workload: stream(1), CoRunning: []workload.Generator{stream(2)}, Sampling: smp},
		"sampling bandwidth queues":      {Workload: stream(1), Bandwidth: true, Sampling: smp},
	} {
		if _, err := NewRunner(cfg); err == nil {
			t.Errorf("%s should error", name)
		}
	}
}

func TestMultiArenasAreDisjoint(t *testing.T) {
	r := newCoRunner(t, "redis", 3)
	// Arenas are allocated back to back, core 0 first.
	prevEnd := tiermem.VPN(0)
	for i, c := range r.cores {
		if c.base != prevEnd {
			t.Errorf("core %d base = %d, want %d", i, c.base, prevEnd)
		}
		prevEnd = c.base + tiermem.VPN((c.gen.Footprint()+4095)/4096)
	}
	if int(prevEnd) != r.Sys.PageTable().Len() {
		t.Errorf("arenas cover %d pages, table has %d", prevEnd, r.Sys.PageTable().Len())
	}
}

func TestMultiCausalOrder(t *testing.T) {
	// After a run, core clocks should be close to each other (the
	// min-clock scheduler keeps them in lockstep) — no core runs far
	// ahead of the shared state it touches.
	r := newCoRunner(t, "cc", 4)
	r.Run(50_000)
	var min, max uint64 = ^uint64(0), 0
	for _, c := range r.cores {
		if c.clockNs < min {
			min = c.clockNs
		}
		if c.clockNs > max {
			max = c.clockNs
		}
	}
	if min == 0 {
		t.Fatal("cores did not run")
	}
	// Spread stays within 25% of the slower core's span (identical
	// workloads, different seeds).
	if float64(max-min) > 0.25*float64(max) {
		t.Errorf("core clocks diverged: min=%d max=%d", min, max)
	}
}

func TestMultiBandwidthContention(t *testing.T) {
	// The same total work on a 0.5GB/s CXL channel must take longer than
	// on the default channel: co-running cores queue on the bottleneck.
	fast := newCoRunner(t, "mcf", 8)
	slow := newCoRunner(t, "mcf", 8)
	slow.queue[tiermem.NodeCXL] = newChannel(0.5, nil)
	rf := fast.Run(100_000)
	rs := slow.Run(100_000)
	if rs.ElapsedNs <= rf.ElapsedNs {
		t.Errorf("bandwidth-starved run (%d ns) should be slower than default (%d ns)",
			rs.ElapsedNs, rf.ElapsedNs)
	}
}

func TestMultiSharedDaemonMigrates(t *testing.T) {
	r, _ := buildCoRunner(t, coCase{bench: "roms", cores: 4, cfg: func(c *Config) {
		c.HPT = &tracker.Config{Algorithm: tracker.CMSketch, Entries: 8192, K: 64}
	}}, nil)
	r.SetDaemon(m5mgr.NewManager(r.Sys, r.Ctrl, m5mgr.ManagerConfig{Mode: m5mgr.HPTOnly}))
	r.Run(200_000)
	res := r.Run(400_000)
	if res.Promotions == 0 {
		t.Fatal("shared M5 manager should migrate")
	}
	if res.DRAMReads[tiermem.NodeDDR] == 0 {
		t.Error("promoted pages should serve DDR reads")
	}
	// Cgroup limit respected across all instances.
	if used := r.Sys.Node(tiermem.NodeDDR).UsedPages(); used > r.Sys.Node(tiermem.NodeDDR).Limit() {
		t.Errorf("DDR used %d exceeds limit %d", used, r.Sys.Node(tiermem.NodeDDR).Limit())
	}
}

func TestMultiKVSP99(t *testing.T) {
	r := newCoRunner(t, "redis", 2)
	res := r.Run(200_000)
	if res.OpCount == 0 || res.P99OpNs == 0 {
		t.Error("KVS instances should report op latency")
	}
}

func TestMultiMatchesSingleAtOneInstance(t *testing.T) {
	// One core with bandwidth queues carries the same traffic as one
	// without (only its clock sees the queue).
	queued := newCoRunner(t, "mcf", 1)
	qres := queued.Run(200_000)
	plain := newRunner(t, "mcf", Config{})
	pres := plain.Run(200_000)

	if qres.Accesses != pres.Accesses {
		t.Errorf("accesses differ: %d vs %d", qres.Accesses, pres.Accesses)
	}
	if qres.DRAMReads != pres.DRAMReads || qres.DRAMWrites != pres.DRAMWrites {
		t.Errorf("DRAM traffic differs: %v/%v vs %v/%v", qres.DRAMReads, qres.DRAMWrites, pres.DRAMReads, pres.DRAMWrites)
	}
	if qres.ElapsedNs < pres.ElapsedNs {
		t.Errorf("queued core (%d ns) ran faster than the unqueued one (%d ns)", qres.ElapsedNs, pres.ElapsedNs)
	}
}
