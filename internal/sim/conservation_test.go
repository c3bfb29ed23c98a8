package sim

import (
	"fmt"
	"testing"

	m5mgr "m5/internal/m5"
	"m5/internal/tiermem"
	"m5/internal/tracker"
	"m5/internal/workload"
)

// TestCreditConservation checks that every counting surface on the DRAM
// path is credited the traffic the runner accounts, in each fidelity
// tier. The sampled tier credits each simulated access with the weight of
// the thinned-away batches it stands in for, so a lost or wrong weight (a
// surface credited 1 where the batch weighs more, a dropped writeback
// credit, a tee or counter that drops the weight it is handed) breaks one
// of these identities:
//
//   - the device's reads plus writes equal the runner's CXL DRAM traffic,
//     PAC's and WAC's Total+Dropped, and, on a machine whose trackers no
//     daemon queries, HPT's and HWT's Observed;
//   - each node's reads plus writes equal the runner's DRAM traffic on
//     that node, and the miss sink saw all DRAM traffic.
//
// Migrations are not DRAM traffic, so a migrating M5 manager leaves the
// identities intact.
func TestCreditConservation(t *testing.T) {
	const warmup, accesses = 100_000, 400_000
	modes := []struct {
		name string
		smp  SamplingConfig
	}{
		{"exact", SamplingConfig{}},
		{"sampled", SamplingConfig{Mode: SampleModeSampled}},
		{"sampled-1024-7168", SamplingConfig{Mode: SampleModeSampled, DetailedWindow: 1024, FunctionalStride: 7168}},
	}
	for _, bench := range []string{"pr", "redis", "mcf", "roms"} {
		for _, mode := range modes {
			for _, daemon := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/bare", bench, mode.name)
				if daemon {
					name = fmt.Sprintf("%s/%s/m5-hpt", bench, mode.name)
				}
				t.Run(name, func(t *testing.T) {
					gen, err := workload.New(bench, workload.ScaleTiny, 3)
					if err != nil {
						t.Fatal(err)
					}
					r, err := NewRunner(Config{
						Workload:  gen,
						Sampling:  mode.smp,
						EnablePAC: true,
						EnableWAC: true,
						HPT:       &tracker.Config{},
						HWT:       &tracker.Config{},
					})
					if err != nil {
						gen.Close()
						t.Fatal(err)
					}
					defer r.Close()
					sink := &countingSink{}
					r.AttachMissSink(sink)
					if daemon {
						r.SetDaemon(m5mgr.NewManager(r.Sys, r.Ctrl, m5mgr.ManagerConfig{Mode: m5mgr.HPTOnly}))
					}
					r.Run(warmup)
					res := r.Run(accesses)
					if mode.smp.Enabled() && (res.Sampling == nil || res.Sampling.AccessesSkipped == 0) {
						t.Fatalf("no batch was thinned (%+v): no weight above 1 was credited", res.Sampling)
					}
					checkCreditConservation(t, r, sink, !daemon)
				})
			}
		}
	}
}

// checkCreditConservation asserts TestCreditConservation's identities on
// a single-core runner; trackersIntact adds the tracker identities, which
// hold only while nothing has queried (and so reset) the trackers.
func checkCreditConservation(t *testing.T, r *Runner, sink *countingSink, trackersIntact bool) {
	t.Helper()
	_, reads, writes := r.traffic()
	cxlTraffic := reads[tiermem.NodeCXL] + writes[tiermem.NodeCXL]
	if cxlTraffic == 0 {
		t.Fatal("no CXL DRAM traffic: the identities would hold vacuously")
	}
	type surface struct {
		name string
		got  uint64
	}
	c := r.Ctrl
	surfaces := []surface{
		{"device reads+writes", c.Device.Reads() + c.Device.Writes()},
		{"PAC total+dropped", c.PAC.Total() + c.PAC.Dropped()},
		{"WAC total+dropped", c.WAC.Total() + c.WAC.Dropped()},
	}
	if trackersIntact {
		surfaces = append(surfaces,
			surface{"HPT observed", c.HPT.Observed()},
			surface{"HWT observed", c.HWT.Observed()})
	}
	for _, s := range surfaces {
		if s.got != cxlTraffic {
			t.Errorf("%s = %d, runner's CXL DRAM traffic = %d", s.name, s.got, cxlTraffic)
		}
	}
	var all uint64
	for _, node := range []tiermem.NodeID{tiermem.NodeDDR, tiermem.NodeCXL} {
		n := r.Sys.Node(node)
		want := reads[node] + writes[node]
		all += want
		if n.Reads() != reads[node] || n.Writes() != writes[node] {
			t.Errorf("node %v reads/writes = %d/%d, runner's DRAM traffic %d/%d",
				node, n.Reads(), n.Writes(), reads[node], writes[node])
		}
	}
	if sink.n != all {
		t.Errorf("miss sink saw %d accesses, runner's DRAM traffic = %d", sink.n, all)
	}
}
