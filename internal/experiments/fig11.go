package experiments

import (
	"fmt"

	"m5/internal/mem"
	"m5/internal/sketch"
	"m5/internal/trace"
	"m5/internal/tracker"
)

// Fig11Processes is the x-axis of Figure 11: co-running instance counts.
var Fig11Processes = []int{1, 2, 4, 8, 16, 32, 64}

// Fig11Benchmarks are the four SPEC workloads the paper scales up.
func Fig11Benchmarks() []string {
	return []string{"mcf", "roms", "foto", "cactu"}
}

// Fig11Row is one point of Figure 11: CM-Sketch(32K) HPT accuracy as the
// working set grows with the number of co-running processes.
type Fig11Row struct {
	Benchmark string
	Processes int
	Accuracy  float64
}

// Fig11 reproduces Figure 11 (§8 scalability): collect one cache-filtered
// CXL trace per benchmark, then replay P interleaved copies, each mapped
// to a disjoint physical range (as the paper's co-running instances use
// unique address ranges). Address cardinality grows with P, increasing
// CM-Sketch collisions; the accuracy must degrade gracefully.
func Fig11(p Params) ([]Fig11Row, error) {
	p, err := p.prepare()
	if err != nil {
		return nil, err
	}
	if len(p.Benchmarks) == 0 {
		p.Benchmarks = Fig11Benchmarks()
	}
	// Phase 1: one trace per benchmark; phase 2: each (benchmark,
	// process-count) replay is an independent cell over the shared trace.
	// The trace carries Horvitz-Thompson weights (all 1 under the exact
	// engine), so sampled runs replay one entry per simulated access and
	// the P-fold interleave below scales with the simulated stream.
	traces, err := mapCells(p, len(p.Benchmarks), func(i int) (WeightedTrace, error) {
		bench := p.Benchmarks[i]
		wt, err := CollectWeightedCXLTrace(p, bench)
		if err != nil {
			return WeightedTrace{}, fmt.Errorf("fig11 %s: %w", bench, err)
		}
		if len(wt.Accs) == 0 {
			return WeightedTrace{}, fmt.Errorf("fig11 %s: empty trace", bench)
		}
		return wt, nil
	})
	if err != nil {
		return nil, err
	}
	perBench := len(Fig11Processes)
	return mapCells(p, len(p.Benchmarks)*perBench, func(i int) (Fig11Row, error) {
		bench := p.Benchmarks[i/perBench]
		procs := Fig11Processes[i%perBench]
		wt := traces[i/perBench]
		tr := tracker.New(tracker.Config{
			Granularity: tracker.PageGranularity,
			Algorithm:   tracker.CMSketch,
			Entries:     32 * 1024,
			K:           5,
		})
		return Fig11Row{Benchmark: bench, Processes: procs, Accuracy: scoreFig11(tr, wt, procs)}, nil
	})
}

// scoreFig11 replays P virtually-interleaved copies of a weighted trace
// into the tracker, scoring reported top-K against exact counting at
// epoch boundaries. The interleave synthesizes the merged stream on
// demand in the same (outer trace index, inner process rotation) order as
// InterleaveProcesses, and each synthesized copy carries its entry's
// Horvitz-Thompson weight. Epochs end every quarter of the trace's
// credited access count; with all-ones weights (every exact-mode
// collection) that is every quarter of the interleaved stream.
func scoreFig11(tr *tracker.Tracker, wt WeightedTrace, procs int) float64 {
	gran := tr.Config().Granularity
	exact := sketch.NewCountTable(1024)
	var ratios epochRatios
	var largest []uint64
	score := func() {
		if top := tr.Query(); len(top) > 0 && exact.Len() > 0 {
			var got, best uint64
			for _, e := range top {
				got += exact.Get(e.Addr)
			}
			largest = largest[:0]
			exact.Range(func(_, c uint64) bool {
				largest = keepLargest(largest, c, len(top))
				return true
			})
			for _, c := range largest {
				best += c
			}
			ratios.add(got, best)
		}
		exact.Reset()
	}

	var per uint64
	for _, w := range wt.Weights {
		per += w
	}
	per /= 4
	if per == 0 {
		// Degenerate tiny trace: no interior boundaries, score once at the
		// end.
		per = ^uint64(0)
	}
	const stride = mem.PhysAddr(64) << 30 // disjoint 64GB windows
	var seen uint64
	rot := 0
	for idx, a := range wt.Accs {
		w := wt.Weights[idx]
		// Rotate the start process so no instance systematically leads
		// inside an epoch; proc = (q+idx) % procs, kept by increments so
		// the hot loop pays no per-access division.
		proc := rot
		for q := 0; q < procs; q++ {
			if seen >= per {
				score()
				seen = 0
			}
			key := gran.Key(a.Addr + stride*mem.PhysAddr(proc))
			tr.ObserveKeyN(key, w)
			exact.Inc(key, w)
			seen += w
			if proc++; proc == procs {
				proc = 0
			}
		}
		if rot++; rot == procs {
			rot = 0
		}
	}
	score()
	return ratios.mean()
}

// InterleaveProcesses turns one instance's trace into P co-running
// instances by replicating each access across P disjoint 64GB-aligned
// physical ranges, round-robin — the unique-physical-range setup of the
// paper's experiment.
func InterleaveProcesses(accs []trace.Access, procs int) []trace.Access {
	if procs <= 1 {
		return accs
	}
	const stride = mem.PhysAddr(64) << 30 // disjoint 64GB windows
	out := make([]trace.Access, 0, len(accs)*procs)
	for i, a := range accs {
		for q := 0; q < procs; q++ {
			// Rotate the start process so no instance systematically
			// leads inside an epoch.
			proc := (q + i) % procs
			out = append(out, trace.Access{
				Time:  a.Time,
				Addr:  a.Addr + stride*mem.PhysAddr(proc),
				Write: a.Write,
			})
		}
	}
	return out
}
