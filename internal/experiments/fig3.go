package experiments

// Fig3Row is one bar group of Figure 3: the average access-count ratio of
// hot pages identified by ANB and DAMON, scored against PAC's exact top-K.
type Fig3Row struct {
	Benchmark string
	ANB       Ratio
	DAMON     Ratio
}

// Fig3 reproduces Figure 3 (§4.1): run each benchmark with a CPU-driven
// solution in profiling mode (identify, don't migrate) while PAC counts
// every CXL access; at several execution points, look up the identified
// PFNs in PAC's access-count table and divide by the same-size exact
// top-K sum.
func Fig3(p Params) ([]Fig3Row, error) {
	p, err := p.prepare()
	if err != nil {
		return nil, err
	}
	solutions := []Cell{{Arm: "anb"}, {Arm: "damon"}}
	ratios, err := runEach(p, "fig3", benchGrid(p.Benchmarks, solutions...), p.profileCell)
	if err != nil {
		return nil, err
	}
	rows := make([]Fig3Row, len(p.Benchmarks))
	for i, bench := range p.Benchmarks {
		rows[i] = Fig3Row{Benchmark: bench, ANB: ratios[2*i], DAMON: ratios[2*i+1]}
	}
	return rows, nil
}
