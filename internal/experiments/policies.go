package experiments

// PolicyRow compares the M5 policy zoo on one benchmark: the stock Elector
// (Algorithm 1), the static fixed-period policy, the bandwidth-threshold
// policy, and the density-filtering policy (Guideline 3), all normalized
// to no migration. This is the §5.2 platform claim made measurable:
// different policies, same trackers.
type PolicyRow struct {
	Benchmark string
	Elector   float64
	Static    float64
	Threshold float64
	Density   float64
}

// ExtPolicies runs the comparison.
func ExtPolicies(p Params) ([]PolicyRow, error) {
	p, err := p.prepare()
	if err != nil {
		return nil, err
	}
	// Cells per benchmark: the no-migration baseline, then the registry
	// arms in row order.
	arms := []Cell{{}, {Arm: "m5-hpt"}, {Arm: "m5-static"}, {Arm: "m5-threshold"}, {Arm: "m5-density"}}
	results, err := runEach(p, "policies", benchGrid(p.Benchmarks, arms...), p.runCell)
	if err != nil {
		return nil, err
	}
	rows := make([]PolicyRow, len(p.Benchmarks))
	for i, bench := range p.Benchmarks {
		norm := func(j int) float64 {
			return normalizedPerf(results[i*len(arms)], results[i*len(arms)+j])
		}
		rows[i] = PolicyRow{Benchmark: bench, Elector: norm(1), Static: norm(2), Threshold: norm(3), Density: norm(4)}
	}
	return rows, nil
}
