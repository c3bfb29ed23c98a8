package m5

import (
	"testing"

	"m5/internal/cxl"
	"m5/internal/mem"
	"m5/internal/tiermem"
	"m5/internal/trace"
	"m5/internal/tracker"
)

// rig builds a small system + controller pair with both trackers enabled.
func rig(t *testing.T, ddrPages, cxlPages uint64) (*tiermem.System, *cxl.Controller, tiermem.VPN) {
	t.Helper()
	sys := tiermem.NewSystem(tiermem.Config{DDRPages: ddrPages, CXLPages: cxlPages, Cores: 1})
	ctrl := cxl.NewController(cxl.ControllerConfig{
		Span: sys.CXLSpan(),
		HPT:  &tracker.Config{Algorithm: tracker.CMSketch, Entries: 4096, K: 8},
		HWT:  &tracker.Config{Algorithm: tracker.CMSketch, Entries: 4096, K: 16},
	})
	v, err := sys.Alloc(int(cxlPages/2), tiermem.NodeCXL)
	if err != nil {
		t.Fatal(err)
	}
	return sys, ctrl, v
}

// hammer drives accesses at page (and word 0..words-1) of the given VPN
// through the translation path and the CXL device.
func hammer(sys *tiermem.System, ctrl *cxl.Controller, v tiermem.VPN, words, times int) {
	for i := 0; i < times; i++ {
		for w := 0; w < words; w++ {
			va := v.Addr() + tiermem.VirtAddr(w*64)
			res := sys.Translate(0, va, false)
			if res.Node == tiermem.NodeCXL {
				ctrl.Device.Access(trace.Access{Addr: res.Phys})
			}
		}
	}
}

func TestMonitorStats(t *testing.T) {
	sys, _, v := rig(t, 32, 128)
	mon := NewMonitor(sys)
	mon.Sample(0)
	// 100 CXL reads over 1µs.
	for i := 0; i < 100; i++ {
		res := sys.Translate(0, v.Addr(), false)
		sys.CountDRAMAccess(res.Phys, false)
	}
	s := mon.Sample(1000)
	if s.NrPages[tiermem.NodeCXL] != 64 {
		t.Errorf("NrPages(CXL) = %d", s.NrPages[tiermem.NodeCXL])
	}
	// 100 reads * 64B over 1000ns = 6.4 GB/s.
	if s.BW[tiermem.NodeCXL] != 6.4e9 {
		t.Errorf("BW(CXL) = %v", s.BW[tiermem.NodeCXL])
	}
	if s.BW[tiermem.NodeDDR] != 0 {
		t.Errorf("BW(DDR) = %v", s.BW[tiermem.NodeDDR])
	}
	if s.BWDen(tiermem.NodeCXL) <= 0 {
		t.Error("BWDen(CXL) should be positive")
	}
	if s.BWDen(tiermem.NodeDDR) != 0 {
		t.Error("BWDen(DDR) with no pages should be 0")
	}
	if s.BWTot() != s.BW[tiermem.NodeCXL] {
		t.Error("BWTot")
	}
	if s.RelBWDen(tiermem.NodeCXL) <= 0 {
		t.Error("RelBWDen")
	}
	// Second window with no traffic: zero bandwidth.
	s2 := mon.Sample(2000)
	if s2.BW[tiermem.NodeCXL] != 0 {
		t.Error("stale reads leaked into the new window")
	}
}

func TestStatsZeroWindow(t *testing.T) {
	var s Stats
	if s.BWTot() != 0 || s.RelBWDen(tiermem.NodeDDR) != 0 {
		t.Error("zero stats should be all zero")
	}
}

func TestNominatorModeString(t *testing.T) {
	if HPTOnly.String() != "hpt" || HPTDriven.String() != "hpt+hwt" || HWTDriven.String() != "hwt" {
		t.Error("mode names")
	}
	if NominatorMode(9).String() == "" {
		t.Error("unknown mode should render")
	}
}

func TestNominatorRequiresTrackers(t *testing.T) {
	sys := tiermem.NewSystem(tiermem.Config{DDRPages: 8, CXLPages: 8})
	bare := cxl.NewController(cxl.ControllerConfig{Span: sys.CXLSpan()})
	for _, mode := range []NominatorMode{HPTOnly, HPTDriven, HWTDriven} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("mode %v should panic without trackers", mode)
				}
			}()
			NewNominator(bare, mode)
		}()
	}
}

func TestHPTOnlyNomination(t *testing.T) {
	sys, ctrl, v := rig(t, 32, 128)
	nom := NewNominator(ctrl, HPTOnly)
	hammer(sys, ctrl, v, 1, 500)
	hammer(sys, ctrl, v+1, 1, 100)
	hot := nom.Nominate()
	if len(hot) < 2 {
		t.Fatalf("nominated %d pages", len(hot))
	}
	wantPFN := sys.PageTable().Get(v).Frame
	if hot[0].PFN != wantPFN {
		t.Errorf("hottest = %v, want %v", hot[0].PFN, wantPFN)
	}
	if hot[0].Count < hot[1].Count {
		t.Error("nominations should be hottest-first")
	}
	// Query resets: immediate re-nomination is empty.
	if len(nom.Nominate()) != 0 {
		t.Error("second nominate should see a fresh epoch")
	}
}

func TestHPTDrivenMasksAndDenseFirst(t *testing.T) {
	sys, ctrl, v := rig(t, 32, 128)
	nom := NewNominator(ctrl, HPTDriven)
	// Page v: dense (8 hot words). Page v+1: sparse (1 very hot word).
	hammer(sys, ctrl, v, 8, 100)
	hammer(sys, ctrl, v+1, 1, 700)
	hot := nom.Nominate()
	if len(hot) < 2 {
		t.Fatalf("nominated %d pages", len(hot))
	}
	densePFN := sys.PageTable().Get(v).Frame
	if hot[0].PFN != densePFN {
		t.Errorf("dense page should be nominated first, got %v", hot[0].PFN)
	}
	if hot[0].DenseWords() < 2 {
		t.Errorf("dense page mask has %d bits", hot[0].DenseWords())
	}
}

func TestHWTDrivenBuildsPagesFromWords(t *testing.T) {
	sys, ctrl, v := rig(t, 32, 128)
	nom := NewNominator(ctrl, HWTDriven)
	hammer(sys, ctrl, v, 4, 200)
	hot := nom.Nominate()
	if len(hot) == 0 {
		t.Fatal("no nominations")
	}
	wantPFN := sys.PageTable().Get(v).Frame
	if hot[0].PFN != wantPFN {
		t.Errorf("page = %v, want %v", hot[0].PFN, wantPFN)
	}
	if hot[0].DenseWords() != 4 {
		t.Errorf("mask bits = %d, want 4", hot[0].DenseWords())
	}
}

func TestPromoterMigratesAndChecksSafety(t *testing.T) {
	sys, _, v := rig(t, 32, 128)
	p := NewPromoter(sys)
	sys.Pin(v + 1)
	frames := []HotPage{
		{PFN: sys.PageTable().Get(v).Frame},
		{PFN: sys.PageTable().Get(v + 1).Frame}, // pinned
		{PFN: mem.PFN(0xdead000)},               // unknown frame
	}
	n := p.Promote(frames)
	if n != 1 {
		t.Errorf("promoted %d, want 1", n)
	}
	if sys.NodeOf(v) != tiermem.NodeDDR {
		t.Error("page should be on DDR")
	}
	if p.Refused() != 2 {
		t.Errorf("Refused = %d, want 2", p.Refused())
	}
	if p.Promote(nil) != 0 {
		t.Error("empty batch")
	}
}

func TestElectorAdaptsPeriod(t *testing.T) {
	// A 1-page DDR limit ends the fill phase after the first promotion,
	// exposing the adaptive frequency of Algorithm 1 line 2.
	sys := tiermem.NewSystem(tiermem.Config{
		DDRPages: 8, CXLPages: 128, DDRLimitPages: 1, Cores: 1,
	})
	ctrl := cxl.NewController(cxl.ControllerConfig{
		Span: sys.CXLSpan(),
		HPT:  &tracker.Config{Algorithm: tracker.CMSketch, Entries: 4096, K: 8},
	})
	v, err := sys.Alloc(16, tiermem.NodeCXL)
	if err != nil {
		t.Fatal(err)
	}
	mon := NewMonitor(sys)
	nom := NewNominator(ctrl, HPTOnly)
	el := NewElector(mon, nom, NewPromoter(sys), ElectorConfig{N: 3})

	// Window 1: heavy CXL traffic -> bw_den(CXL) >> bw_den(DDR) -> short
	// period (aggressive migration per Guideline 1). The step promotes
	// the hot page, filling DDR to its limit.
	for i := 0; i < 2000; i++ {
		res := sys.Translate(0, v.Addr(), false)
		sys.CountDRAMAccess(res.Phys, false)
		ctrl.Device.Access(trace.Access{Addr: res.Phys})
	}
	hotPeriod := el.Step(1_000_000)

	// Window 2: traffic now mostly DDR (page was migrated); CXL cold ->
	// long period.
	for i := 0; i < 2000; i++ {
		res := sys.Translate(0, v.Addr(), false)
		sys.CountDRAMAccess(res.Phys, false)
	}
	coldPeriod := el.Step(2_000_000)
	if hotPeriod >= coldPeriod {
		t.Errorf("hot period %d should be shorter than cold period %d", hotPeriod, coldPeriod)
	}
	if el.Steps() != 2 {
		t.Errorf("Steps = %d", el.Steps())
	}
}

func TestElectorGuideline2StopsMigration(t *testing.T) {
	// A 1-page DDR cgroup limit puts the system at equilibrium after the
	// first promotion, so Guideline 2's rel_bw_den gate decides every
	// subsequent step.
	sys := tiermem.NewSystem(tiermem.Config{
		DDRPages: 8, CXLPages: 128, DDRLimitPages: 1, Cores: 1,
	})
	ctrl := cxl.NewController(cxl.ControllerConfig{
		Span: sys.CXLSpan(),
		HPT:  &tracker.Config{Algorithm: tracker.CMSketch, Entries: 4096, K: 8},
	})
	v, err := sys.Alloc(16, tiermem.NodeCXL)
	if err != nil {
		t.Fatal(err)
	}
	mon := NewMonitor(sys)
	nom := NewNominator(ctrl, HPTOnly)
	el := NewElector(mon, nom, NewPromoter(sys), ElectorConfig{})

	// Step 1 always migrates (bootstrap + fill phase).
	for i := 0; i < 100; i++ {
		res := sys.Translate(0, v.Addr(), false)
		sys.CountDRAMAccess(res.Phys, false)
		ctrl.Device.Access(trace.Access{Addr: res.Phys})
	}
	el.Step(1_000_000)
	if el.Migrations() == 0 {
		t.Fatal("bootstrap step should migrate")
	}
	// DDR is now at its limit. Feed two windows of pure-CXL traffic:
	// rel_bw_den(DDR) stays flat at 0, so the gate must skip.
	for i := 0; i < 100; i++ {
		res := sys.Translate(0, (v + 5).Addr(), false)
		sys.CountDRAMAccess(res.Phys, false)
		ctrl.Device.Access(trace.Access{Addr: res.Phys})
	}
	el.Step(2_000_000)
	el.Step(3_000_000)
	if el.Skipped() == 0 {
		t.Error("Guideline 2 should have skipped at least one step")
	}
}

func TestManagerProfileMode(t *testing.T) {
	sys, ctrl, v := rig(t, 32, 128)
	mgr := NewManager(sys, ctrl, ManagerConfig{Mode: HPTOnly, Profile: true, HotListCap: 4})
	hammer(sys, ctrl, v, 1, 300)
	hammer(sys, ctrl, v+1, 1, 200)
	mgr.Tick(1_000_000)
	hot := mgr.HotPFNs()
	if len(hot) == 0 {
		t.Fatal("profile mode should record hot pages")
	}
	if sys.Promotions() != 0 {
		t.Error("profile mode must not migrate")
	}
	if mgr.Queries() == 0 {
		t.Error("queries should be counted")
	}
	// Cap respected across ticks.
	for i := 0; i < 10; i++ {
		hammer(sys, ctrl, v+tiermem.VPN(2+i), 1, 50)
		mgr.Tick(uint64(2+i) * 1_000_000)
	}
	if len(mgr.HotPFNs()) > 4 {
		t.Errorf("hot list exceeded cap: %d", len(mgr.HotPFNs()))
	}
}

func TestManagerMigrationMode(t *testing.T) {
	sys, ctrl, v := rig(t, 32, 128)
	mgr := NewManager(sys, ctrl, ManagerConfig{Mode: HPTOnly})
	hammer(sys, ctrl, v, 1, 500)
	for i := 0; i < 500; i++ {
		res := sys.Translate(0, v.Addr(), false)
		sys.CountDRAMAccess(res.Phys, false)
	}
	mgr.Tick(1_000_000)
	if sys.NodeOf(v) != tiermem.NodeDDR {
		t.Error("manager should have promoted the hot page")
	}
	if mgr.PeriodNs() == 0 {
		t.Error("adaptive period should be set")
	}
	if mgr.Name() != "m5-hpt" {
		t.Errorf("Name = %q", mgr.Name())
	}
	if mgr.Elector().Migrations() == 0 || mgr.Promoter().Promoted() == 0 {
		t.Error("stats should record the migration")
	}
}

func TestManagerKernelCostIsTiny(t *testing.T) {
	// The headline §4.2/§7.2 property: M5's identification cost is
	// near-zero compared to a DAMON-style full PTE scan.
	sys, ctrl, v := rig(t, 32, 512)
	mgr := NewManager(sys, ctrl, ManagerConfig{Mode: HPTOnly})
	hammer(sys, ctrl, v, 1, 100)
	before := sys.KernelNs()
	mgr.Tick(1_000_000)
	cost := sys.KernelNs() - before
	// One tick costs MMIO queries + any migrations; identification alone
	// (queries) must be bounded by a few MMIO reads.
	maxIdent := 4 * sys.Costs().MMIOReadNs
	migCost := sys.Promotions() * sys.Costs().MigratePageNs
	shootdowns := uint64(0)
	for c := 0; c < sys.Cores(); c++ {
		shootdowns += sys.TLB(c).Shootdowns()
	}
	if cost > maxIdent+migCost+shootdowns*sys.Costs().TLBShootdownNs {
		t.Errorf("M5 tick cost %dns exceeds MMIO+migration budget", cost)
	}
}
