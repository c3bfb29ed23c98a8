package m5_test

import (
	"fmt"

	"m5/internal/cxl"
	m5mgr "m5/internal/m5"
	"m5/internal/tiermem"
	"m5/internal/trace"
	"m5/internal/tracker"
)

// Example_manager wires the full M5 stack by hand — system, controller,
// manager — and runs one Algorithm 1 step, the skeleton every custom
// policy starts from.
func Example_manager() {
	sys := tiermem.NewSystem(tiermem.Config{DDRPages: 64, CXLPages: 256, Cores: 1})
	ctrl := cxl.NewController(cxl.ControllerConfig{
		Span: sys.CXLSpan(),
		HPT:  &tracker.Config{Algorithm: tracker.CMSketch, Entries: 4096, K: 4},
	})
	mgr := m5mgr.NewManager(sys, ctrl, m5mgr.ManagerConfig{Mode: m5mgr.HPTOnly})

	// The workload: one hot page on CXL, observed by the device.
	base, _ := sys.Alloc(16, tiermem.NodeCXL)
	for i := 0; i < 400; i++ {
		res := sys.Translate(0, base.Addr(), false)
		sys.CountDRAMAccess(res.Phys, false)
		ctrl.Device.Access(trace.Access{Addr: res.Phys})
	}

	mgr.Tick(1_000_000) // one manager period

	fmt.Println("page now on:", sys.NodeOf(base))
	fmt.Println("promotions:", sys.Promotions())
	// Output:
	// page now on: ddr
	// promotions: 1
}
