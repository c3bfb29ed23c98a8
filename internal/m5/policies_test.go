package m5

import (
	"testing"

	"m5/internal/cxl"
	"m5/internal/tiermem"
	"m5/internal/tracker"
)

func TestStaticPolicyMigratesEveryTick(t *testing.T) {
	sys, ctrl, v := rig(t, 32, 128)
	p := NewStaticPolicy(sys, NewNominator(ctrl, HPTOnly))
	if p.PeriodNs() != zooPeriodNs {
		t.Errorf("period = %d, want %d", p.PeriodNs(), zooPeriodNs)
	}
	hammer(sys, ctrl, v, 1, 200)
	p.Tick(1_000_000)
	if p.Migrated() != 1 || sys.NodeOf(v) != tiermem.NodeDDR {
		t.Errorf("Migrated = %d, node = %v", p.Migrated(), sys.NodeOf(v))
	}
	if p.Name() != "m5-static-hpt" {
		t.Errorf("Name = %q", p.Name())
	}
}

func TestThresholdPolicyEngagesAndBacksOff(t *testing.T) {
	// DDR limit 1: equilibrium after one promotion, then the density
	// threshold controls engagement.
	sys := tiermem.NewSystem(tiermem.Config{
		DDRPages: 8, CXLPages: 128, DDRLimitPages: 1, Cores: 1,
	})
	ctrl := newCtrl(sys)
	v, err := sys.Alloc(16, tiermem.NodeCXL)
	if err != nil {
		t.Fatal(err)
	}
	p := NewThresholdPolicy(sys, NewNominator(ctrl, HPTOnly))

	// Fill phase: engages regardless of densities.
	hammer(sys, ctrl, v, 1, 100)
	for i := 0; i < 100; i++ {
		res := sys.Translate(0, v.Addr(), false)
		sys.CountDRAMAccess(res.Phys, false)
	}
	p.Tick(1_000_000)
	if p.Engaged() != 1 || p.Migrated() == 0 {
		t.Fatalf("fill phase should engage: %+v", p)
	}
	base := p.PeriodNs()

	// Post-fill, a DDR-dominated window disengages and backs off.
	for i := 0; i < 200; i++ {
		res := sys.Translate(0, v.Addr(), false)
		sys.CountDRAMAccess(res.Phys, false) // v now on DDR
	}
	p.Tick(2_000_000)
	if p.Skipped() != 1 {
		t.Fatalf("DDR-dense window should disengage: %+v", p)
	}
	if p.PeriodNs() <= base {
		t.Error("disengaged tick should back the period off")
	}
	// A CXL-hot window re-engages at the base period.
	hammer(sys, ctrl, v+1, 1, 300)
	for i := 0; i < 300; i++ {
		res := sys.Translate(0, (v + 1).Addr(), false)
		sys.CountDRAMAccess(res.Phys, false)
	}
	p.Tick(3_000_000)
	if p.Engaged() != 2 || p.PeriodNs() != zooPeriodNs {
		t.Errorf("CXL-dense window should re-engage: %+v period=%d", p, p.PeriodNs())
	}
}

func TestDensityFilterPolicy(t *testing.T) {
	sys, ctrl, v := rig(t, 32, 128)
	p := NewDensityFilterPolicy(sys, NewNominator(ctrl, HPTDriven))
	// Dense page: 8 hot words; sparse page: 1 very hot word.
	hammer(sys, ctrl, v, 8, 100)
	hammer(sys, ctrl, v+1, 1, 900)
	p.Tick(1_000_000)
	if sys.NodeOf(v) != tiermem.NodeDDR {
		t.Error("dense page should migrate")
	}
	if sys.NodeOf(v+1) == tiermem.NodeDDR && p.Filtered() == 0 {
		t.Error("sparse page should have been filtered")
	}
	if p.Name() != "m5-density" || p.PeriodNs() == 0 {
		t.Error("metadata")
	}
	if p.Migrated() == 0 {
		t.Error("Migrated should count")
	}
}

// newCtrl builds a controller with both trackers over the system's span.
func newCtrl(sys *tiermem.System) *cxl.Controller {
	return cxl.NewController(cxl.ControllerConfig{
		Span: sys.CXLSpan(),
		HPT:  &tracker.Config{Algorithm: tracker.CMSketch, Entries: 4096, K: 8},
		HWT:  &tracker.Config{Algorithm: tracker.CMSketch, Entries: 4096, K: 16},
	})
}
