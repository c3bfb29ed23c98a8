package sim

import (
	"testing"

	"m5/internal/baseline"
	"m5/internal/ifmm"
	m5mgr "m5/internal/m5"
	"m5/internal/mem"
	"m5/internal/tiermem"
	"m5/internal/trace"
	"m5/internal/tracker"
	"m5/internal/workload"
)

// Integration tests: cross-module invariants of the assembled machine that
// no single package test can check.

func TestAccountingConsistency(t *testing.T) {
	// System-level counters, node counters, and runner counters must tell
	// one coherent story after a mixed run.
	wl := workload.MustNew("mcf", workload.ScaleTiny, 1)
	r, err := NewRunner(Config{
		Workload:  wl,
		EnablePAC: true,
		HPT:       &tracker.Config{Algorithm: tracker.CMSketch, Entries: 8192, K: 32},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	mgr := m5mgr.NewManager(r.Sys, r.Ctrl,
		m5mgr.ManagerConfig{Mode: m5mgr.HPTOnly})
	r.SetDaemon(mgr)
	res := r.Run(1_000_000)

	// Node read counters match runner-side DRAM read counts.
	if got := r.Sys.Node(tiermem.NodeDDR).Reads(); got != res.DRAMReads[tiermem.NodeDDR] {
		t.Errorf("DDR reads: node=%d runner=%d", got, res.DRAMReads[tiermem.NodeDDR])
	}
	if got := r.Sys.Node(tiermem.NodeCXL).Reads(); got != res.DRAMReads[tiermem.NodeCXL] {
		t.Errorf("CXL reads: node=%d runner=%d", got, res.DRAMReads[tiermem.NodeCXL])
	}
	// The CXL device MC served exactly the CXL reads + CXL writebacks.
	wantDev := res.DRAMReads[tiermem.NodeCXL] + res.DRAMWrites[tiermem.NodeCXL]
	if got := r.Ctrl.Device.Reads() + r.Ctrl.Device.Writes(); got != wantDev {
		t.Errorf("device MC accesses = %d, want %d", got, wantDev)
	}
	// PAC saw every device access (it monitors the whole span).
	if r.Ctrl.PAC.Total() != wantDev {
		t.Errorf("PAC total = %d, want %d", r.Ctrl.PAC.Total(), wantDev)
	}
	if r.Ctrl.PAC.Dropped() != 0 {
		t.Errorf("PAC dropped %d in-span accesses", r.Ctrl.PAC.Dropped())
	}
	// Promotions - demotions equals DDR residency (all pages started CXL).
	resident := r.Sys.ResidentPages(tiermem.NodeDDR)
	if res.Promotions-res.Demotions != resident {
		t.Errorf("promotions %d - demotions %d != DDR resident %d",
			res.Promotions, res.Demotions, resident)
	}
	// Node occupancy agrees with the page table.
	if r.Sys.Node(tiermem.NodeDDR).UsedPages() != resident {
		t.Errorf("node used %d != table resident %d",
			r.Sys.Node(tiermem.NodeDDR).UsedPages(), resident)
	}
}

func TestCgroupLimitNeverExceeded(t *testing.T) {
	for _, policy := range []string{"anb", "damon", "m5"} {
		wl := workload.MustNew("roms", workload.ScaleTiny, 2)
		cfg := Config{Workload: wl, DDRFraction: 0.3}
		if policy == "m5" {
			cfg.HPT = &tracker.Config{Algorithm: tracker.CMSketch, Entries: 8192, K: 32}
		}
		r, err := NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		footPages := int(wl.Footprint() / 4096)
		switch policy {
		case "anb":
			r.SetDaemon(baseline.NewANB(r.Sys, baseline.ANBConfig{
				SamplePages: footPages / 8, Migrate: true,
			}))
		case "damon":
			r.SetDaemon(baseline.NewDAMON(r.Sys, baseline.DAMONConfig{
				Migrate: true, MigrateBatch: footPages,
			}))
		case "m5":
			r.SetDaemon(m5mgr.NewManager(r.Sys, r.Ctrl,
				m5mgr.ManagerConfig{Mode: m5mgr.HPTOnly}))
		}
		r.Run(1_500_000)
		limit := r.Sys.Node(tiermem.NodeDDR).Limit()
		if used := r.Sys.Node(tiermem.NodeDDR).UsedPages(); used > limit {
			t.Errorf("%s: DDR used %d exceeds cgroup limit %d", policy, used, limit)
		}
		r.Close()
	}
}

func TestHPTAgreesWithPACOnSteadyStream(t *testing.T) {
	// End-to-end: the HPT's top pages must be among PAC's exact top pages
	// after a long profiling run (the basis of every ratio experiment).
	wl := workload.MustNew("lib.", workload.ScaleTiny, 3)
	r, err := NewRunner(Config{
		Workload:  wl,
		EnablePAC: true,
		HPT:       &tracker.Config{Algorithm: tracker.CMSketch, Entries: 32 * 1024, K: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.Run(1_000_000)
	top := r.Ctrl.HPT.Peek()
	if len(top) == 0 {
		t.Fatal("HPT empty")
	}
	exactTop := r.Ctrl.PAC.TopK(64)
	exactSet := map[uint64]bool{}
	for _, kc := range exactTop {
		exactSet[kc.Key] = true
	}
	matches := 0
	for _, e := range top {
		if exactSet[e.Addr] {
			matches++
		}
	}
	if matches*2 < len(top) {
		t.Errorf("only %d of HPT's top-%d are in PAC's exact top-64", matches, len(top))
	}
}

func TestWordRemapConservesAccessCount(t *testing.T) {
	// With IFMM installed, total DRAM reads are preserved — they just
	// move between tiers.
	run := func(withIFMM bool) Result {
		wl := workload.MustNew("redis", workload.ScaleTiny, 4)
		r, err := NewRunner(Config{Workload: wl})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if withIFMM {
			r.SetWordRemap(ifmm.New(r.Sys.CXLSpan(), r.Sys.CXLSpan().Words(), 0))
		}
		return r.Run(600_000)
	}
	plain := run(false)
	remapped := run(true)
	plainTotal := plain.DRAMReads[0] + plain.DRAMReads[1]
	remapTotal := remapped.DRAMReads[0] + remapped.DRAMReads[1]
	if plainTotal != remapTotal {
		t.Errorf("total DRAM reads changed under IFMM: %d vs %d", plainTotal, remapTotal)
	}
	if remapped.DRAMReads[tiermem.NodeDDR] == 0 {
		t.Error("IFMM should shift reads to DDR")
	}
}

func TestTraceFileRoundTripThroughTracker(t *testing.T) {
	// Record the device stream, replay from the serialized form, and
	// check a tracker sees identical state — the m5trace workflow.
	wl := workload.MustNew("roms", workload.ScaleTiny, 5)
	r, err := NewRunner(Config{Workload: wl})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var recorded []trace.Access
	live := tracker.NewHPT(tracker.CMSketch, 4096)
	r.Ctrl.Device.Attach(live)
	r.Ctrl.Device.Attach(trace.SinkFunc(func(a trace.Access) {
		recorded = append(recorded, a)
	}))
	r.Run(400_000)

	replayed := tracker.NewHPT(tracker.CMSketch, 4096)
	for _, a := range recorded {
		replayed.Observe(a)
	}
	liveTop := live.Peek()
	replayTop := replayed.Peek()
	if len(liveTop) != len(replayTop) {
		t.Fatalf("top-K sizes differ: %d vs %d", len(liveTop), len(replayTop))
	}
	for i := range liveTop {
		if liveTop[i] != replayTop[i] {
			t.Fatalf("entry %d differs: %+v vs %+v", i, liveTop[i], replayTop[i])
		}
	}
}

func TestMigrationMovesTrafficBetweenSpans(t *testing.T) {
	// After promoting a page, its physical address must fall in the DDR
	// span and subsequent misses must count against DDR.
	wl := workload.MustNew("mcf", workload.ScaleTiny, 6)
	r, err := NewRunner(Config{Workload: wl})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.Run(10_000)
	v := r.Base()
	if err := r.Sys.Migrate(v, tiermem.NodeDDR); err != nil {
		t.Fatal(err)
	}
	tr := r.Sys.Translate(0, v.Addr(), false)
	if tr.Node != tiermem.NodeDDR {
		t.Error("translated node should be DDR")
	}
	if !r.Sys.Node(tiermem.NodeDDR).Span().Contains(tr.Phys) {
		t.Error("physical address should be in the DDR span")
	}
	if r.Sys.NodeOfAddr(tr.Phys) != tiermem.NodeDDR {
		t.Error("NodeOfAddr should agree")
	}
}

func TestPFNStabilityUnderProfiling(t *testing.T) {
	// In profiling mode nothing migrates, so a PFN recorded early still
	// names the same page later — the assumption behind hot-list scoring.
	wl := workload.MustNew("redis", workload.ScaleTiny, 7)
	r, err := NewRunner(Config{Workload: wl, EnablePAC: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	anb := baseline.NewANB(r.Sys, baseline.ANBConfig{SamplePages: 64})
	r.SetDaemon(anb)
	r.Run(200_000)
	early := map[mem.PFN]tiermem.VPN{}
	r.Sys.PageTable().ForEach(func(v tiermem.VPN, pte *tiermem.PTE) bool {
		if pte.Valid {
			early[pte.Frame] = v
		}
		return true
	})
	r.Run(400_000)
	r.Sys.PageTable().ForEach(func(v tiermem.VPN, pte *tiermem.PTE) bool {
		if pte.Valid && early[pte.Frame] != v {
			t.Fatalf("frame %v moved from VPN %d to %d in profiling mode",
				pte.Frame, early[pte.Frame], v)
		}
		return true
	})
	if r.Sys.Promotions() != 0 {
		t.Error("profiling mode migrated pages")
	}
}

// TestCacheReadsMatchRunnerAndPAC: every LLC fill the hierarchy counts is
// a DRAM read the runner counts, and PAC sees exactly the CXL share of
// that traffic plus the CXL writebacks.
func TestCacheReadsMatchRunnerAndPAC(t *testing.T) {
	wl := workload.MustNew("mcf", workload.ScaleTiny, 11)
	r, err := NewRunner(Config{Workload: wl, EnablePAC: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	res := r.Run(300_000)
	want := res.DRAMReads[tiermem.NodeCXL] + res.DRAMWrites[tiermem.NodeCXL]
	if got := r.Ctrl.PAC.Total(); got != want {
		t.Errorf("PAC total %d != CXL traffic %d", got, want)
	}
	if r.Cache.DRAMReads() != res.DRAMReads[0]+res.DRAMReads[1] {
		t.Errorf("cache reads %d != runner reads %d",
			r.Cache.DRAMReads(), res.DRAMReads[0]+res.DRAMReads[1])
	}
}
