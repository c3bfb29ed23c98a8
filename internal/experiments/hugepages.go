package experiments

// ExtHugeRow compares 4KB-granularity M5 migration against 2MB
// huge-granularity migration on a huge-mapped arena (§8 extension). The
// trade-off under study: a 2MB unit migrates for far less than 512
// migrate_pages() calls, but it drags its cold frames along — fine for
// dense workloads, wasteful of the DDR budget for sparse ones.
type ExtHugeRow struct {
	Benchmark string
	// Base4K is M5(HPT) norm perf with a 4KB arena; Huge2M with a
	// huge-mapped arena and unit-granularity promotion.
	Base4K float64
	Huge2M float64
}

// ExtHuge runs the comparison. Each arm is normalized to its own
// no-migration run over the same arena type, so the metric isolates the
// migration-granularity decision.
func ExtHuge(p Params) ([]ExtHugeRow, error) {
	p, err := p.prepare()
	if err != nil {
		return nil, err
	}
	// Four cells per benchmark: (huge?, M5?) in truth-table order.
	variants := []Cell{{}, {Arm: "m5-hpt"}, {Huge: true}, {Huge: true, Arm: "m5-hpt"}}
	results, err := runEach(p, "ext-huge", benchGrid(p.Benchmarks, variants...), p.runCell)
	if err != nil {
		return nil, err
	}
	rows := make([]ExtHugeRow, len(p.Benchmarks))
	for i, bench := range p.Benchmarks {
		rows[i] = ExtHugeRow{
			Benchmark: bench,
			Base4K:    normalizedPerf(results[i*4], results[i*4+1]),
			Huge2M:    normalizedPerf(results[i*4+2], results[i*4+3]),
		}
	}
	return rows, nil
}
