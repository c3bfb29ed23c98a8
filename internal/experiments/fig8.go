package experiments

import (
	"m5/internal/tracker"
)

// Fig8Row is one bar group of Figure 8: the full-system average
// access-count ratio of the best CPU-driven solution against M5 with
// Space-Saving (N=50, the FPGA-feasible CAM) and CM-Sketch (N=32K) HPTs.
type Fig8Row struct {
	Benchmark string
	CPUBest   float64
	M5SS50    float64
	M5CM32K   float64
	// BestCPUName records which CPU-driven solution won.
	BestCPUName string
}

// Fig8 reproduces Figure 8 (§7.2): the same methodology as Figure 3, with
// M5's Manager running in profile mode, its HPT queried at Elector-driven
// rates, scored against PAC over the whole run.
func Fig8(p Params) ([]Fig8Row, error) {
	p, err := p.prepare()
	if err != nil {
		return nil, err
	}
	// Four independent cells per benchmark: anb, damon, ss50, cm32k.
	const perBench = 4
	ratios, err := runEach(p, "fig8", benchGrid(p.Benchmarks,
		Cell{Arm: "anb"},
		Cell{Arm: "damon"},
		Cell{Arm: "m5-hpt", HPT: &tracker.Config{Algorithm: tracker.SpaceSaving, Entries: 50, K: 128}},
		Cell{Arm: "m5-hpt", HPT: &tracker.Config{Algorithm: tracker.CMSketch, Entries: 32 * 1024, K: 128}},
	), p.profileCell)
	if err != nil {
		return nil, err
	}
	rows := make([]Fig8Row, len(p.Benchmarks))
	for i, bench := range p.Benchmarks {
		anb, damon := ratios[perBench*i], ratios[perBench*i+1]
		row := Fig8Row{
			Benchmark: bench,
			M5SS50:    ratios[perBench*i+2].Mean,
			M5CM32K:   ratios[perBench*i+3].Mean,
		}
		if anb.Mean >= damon.Mean {
			row.CPUBest, row.BestCPUName = anb.Mean, "anb"
		} else {
			row.CPUBest, row.BestCPUName = damon.Mean, "damon"
		}
		rows[i] = row
	}
	return rows, nil
}
