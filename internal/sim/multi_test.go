package sim

import (
	"testing"

	m5mgr "m5/internal/m5"
	"m5/internal/tiermem"
	"m5/internal/tracker"
	"m5/internal/workload"
)

func newMulti(t *testing.T, bench string, n int, cfg MultiConfig) *MultiRunner {
	t.Helper()
	cfg.Instances = n
	cfg.MakeWorkload = func(i int) workload.Generator {
		return workload.MustNew(bench, workload.ScaleTiny, int64(i+1))
	}
	m, err := NewMultiRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

func TestMultiRunnerBasics(t *testing.T) {
	m := newMulti(t, "mcf", 4, MultiConfig{})
	res := m.Run(100_000)
	if res.Cores != 4 {
		t.Errorf("Cores = %d", res.Cores)
	}
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
	if m.Sys.Cores() != 4 {
		t.Errorf("system cores = %d", m.Sys.Cores())
	}
}

func TestMultiRunnerConfigValidation(t *testing.T) {
	if _, err := NewMultiRunner(MultiConfig{}); err == nil {
		t.Error("missing factory should error")
	}
	if _, err := NewMultiRunner(MultiConfig{Instances: 2}); err == nil {
		t.Error("missing factory should error")
	}
}

func TestMultiArenasAreDisjoint(t *testing.T) {
	m := newMulti(t, "redis", 3, MultiConfig{})
	// Bases must be strictly increasing by footprint.
	prevEnd := tiermem.VPN(0)
	for i := 0; i < 3; i++ {
		b := m.cores[i].base
		if b != prevEnd {
			t.Errorf("instance %d base = %d, want %d", i, b, prevEnd)
		}
		prevEnd = b + tiermem.VPN((m.cores[i].gen.Footprint()+4095)/4096)
	}
	if int(prevEnd) != m.Sys.PageTable().Len() {
		t.Errorf("arenas cover %d pages, table has %d", prevEnd, m.Sys.PageTable().Len())
	}
}

func TestMultiCausalOrder(t *testing.T) {
	// After a run, core clocks should be close to each other (the
	// min-clock scheduler keeps them in lockstep) — no core runs far
	// ahead of the shared state it touches.
	m := newMulti(t, "cc", 4, MultiConfig{})
	m.Run(50_000)
	var min, max uint64 = ^uint64(0), 0
	for _, c := range m.cores {
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
	// The same total work on a 1GB/s CXL channel must take longer than on
	// the default channel: co-running cores queue on the bottleneck.
	fast := newMulti(t, "mcf", 8, MultiConfig{})
	slow := newMulti(t, "mcf", 8, MultiConfig{CXLBandwidthGBs: 0.5})
	rf := fast.Run(100_000)
	rs := slow.Run(100_000)
	if rs.ElapsedNs <= rf.ElapsedNs {
		t.Errorf("bandwidth-starved run (%d ns) should be slower than default (%d ns)",
			rs.ElapsedNs, rf.ElapsedNs)
	}
}

func TestMultiSharedDaemonMigrates(t *testing.T) {
	m := newMulti(t, "roms", 4, MultiConfig{
		HPT: &tracker.Config{Algorithm: tracker.CMSketch, Entries: 8192, K: 64},
	})
	m.SetDaemon(m5mgr.NewManager(m.Sys, m.Ctrl, m5mgr.ManagerConfig{Mode: m5mgr.HPTOnly}))
	m.Run(200_000)
	res := m.Run(400_000)
	if res.Promotions == 0 {
		t.Fatal("shared M5 manager should migrate")
	}
	if res.DRAMReads[tiermem.NodeDDR] == 0 {
		t.Error("promoted pages should serve DDR reads")
	}
	// Cgroup limit respected across all instances.
	if used := m.Sys.Node(tiermem.NodeDDR).UsedPages(); used > m.Sys.Node(tiermem.NodeDDR).Limit() {
		t.Errorf("DDR used %d exceeds limit %d", used, m.Sys.Node(tiermem.NodeDDR).Limit())
	}
}

func TestMultiKVSP99(t *testing.T) {
	m := newMulti(t, "redis", 2, MultiConfig{})
	res := m.Run(200_000)
	if res.OpCount == 0 || res.P99OpNs == 0 {
		t.Error("KVS instances should report op latency")
	}
}

func TestMultiMatchesSingleAtOneInstance(t *testing.T) {
	// One instance through the multi engine behaves like the single
	// runner (same traffic structure; clocks may differ slightly due to
	// the bandwidth channel).
	m := newMulti(t, "mcf", 1, MultiConfig{})
	mres := m.Run(200_000)

	wl := workload.MustNew("mcf", workload.ScaleTiny, 1)
	r, err := NewRunner(Config{Workload: wl})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	sres := r.Run(200_000)

	if mres.Accesses != sres.Accesses {
		t.Errorf("accesses differ: %d vs %d", mres.Accesses, sres.Accesses)
	}
	mTot := mres.DRAMReads[0] + mres.DRAMReads[1]
	sTot := sres.DRAMReads[0] + sres.DRAMReads[1]
	if mTot != sTot {
		t.Errorf("DRAM reads differ: %d vs %d", mTot, sTot)
	}
}

func TestChannelQueueing(t *testing.T) {
	c := channel{servicePs: 10_000} // 10ns service
	if d := c.serve(100); d != 0 {
		t.Errorf("idle channel delay = %d", d)
	}
	// Immediately following access at the same instant queues.
	if d := c.serve(100); d != 10 {
		t.Errorf("back-to-back delay = %d, want 10", d)
	}
	// An access after the channel drained sees no delay.
	if d := c.serve(1000); d != 0 {
		t.Errorf("late access delay = %d", d)
	}
}
