package experiments

// ExtContentionRow is one point of the multi-instance contention study:
// the paper's SPECrate setup (8 co-running copies, §6) on the shared CXL
// device channel, with and without M5 migration.
type ExtContentionRow struct {
	Benchmark string
	Instances int
	// ThroughputNone / ThroughputM5 are total accesses per simulated
	// second across all cores; the accesses include the warm spans'
	// (contentionCell).
	ThroughputNone float64
	ThroughputM5   float64
	// Speedup is M5 over no migration at this instance count.
	Speedup float64
}

// ExtContention sweeps co-running instance counts. As instances multiply,
// the CXL device channel saturates, raising the effective cost of
// CXL-resident pages.
func ExtContention(p Params, bench string, instanceCounts []int) ([]ExtContentionRow, error) {
	p, err := p.prepare()
	if err != nil {
		return nil, err
	}
	if len(instanceCounts) == 0 {
		instanceCounts = []int{1, 2, 4, 8}
	}
	cells := make([]Cell, 0, 2*len(instanceCounts))
	for _, n := range instanceCounts {
		cells = append(cells, Cell{Bench: bench, Instances: n}, Cell{Bench: bench, Instances: n, Arm: "m5-hpt"})
	}
	results, err := runEach(p, "contention", cells, p.contentionCell)
	if err != nil {
		return nil, err
	}
	rows := make([]ExtContentionRow, len(instanceCounts))
	for i, n := range instanceCounts {
		row := ExtContentionRow{
			Benchmark:      bench,
			Instances:      n,
			ThroughputNone: results[2*i],
			ThroughputM5:   results[2*i+1],
		}
		if row.ThroughputNone > 0 {
			row.Speedup = row.ThroughputM5 / row.ThroughputNone
		}
		rows[i] = row
	}
	return rows, nil
}

// contentionCell runs one co-running cell and returns its throughput in
// accesses per simulated second. It warms to steady state in per-core
// chunks: the fill phase must amortize before measurement or the slowest
// copy (the daemon's core-mate) is dominated by one-time migrate_pages
// work.
func (p Params) contentionCell(c Cell) (float64, error) {
	r, _, err := p.newCellRunner(c, nil)
	if err != nil {
		return 0, err
	}
	defer r.Close()
	warm := warmToSteadyState(r, max(p.Warmup/c.Instances, 10_000))
	per := max(p.Accesses/c.Instances, 10_000)
	res := r.Run(per)
	if res.ElapsedNs == 0 {
		return 0, nil
	}
	// COMPAT: the deleted multi-core engine counted accesses since
	// construction, so the published throughputs divide the warm spans'
	// accesses too by the measured span's time.
	return float64(res.Accesses+warm) * 1e9 / float64(res.ElapsedNs), nil
}

// ExtPEBSRow compares the PEBS/Memtis-style sampler — which the paper
// could not evaluate because the platform's PEBS cannot sample CXL misses
// (§4, [67]) — against M5, something only the simulation can do.
type ExtPEBSRow struct {
	Benchmark string
	// Norm perf vs no migration for the sampler at two sampling rates and
	// for M5(HPT).
	PEBSCoarse float64 // 1/1000 sampling (low overhead, low precision)
	PEBSFine   float64 // 1/100 sampling (the rate [75] reports >15% overhead for)
	M5HPT      float64
}

// ExtPEBS runs the comparison.
func ExtPEBS(p Params) ([]ExtPEBSRow, error) {
	p, err := p.prepare()
	if err != nil {
		return nil, err
	}
	// Four cells per benchmark: none, pebs-coarse, pebs-fine, m5-hpt.
	variants := []Cell{{}, {Arm: "pebs", PEBSRate: 1000}, {Arm: "pebs"}, {Arm: "m5-hpt"}}
	results, err := runEach(p, "ext-pebs", benchGrid(p.Benchmarks, variants...), p.runCell)
	if err != nil {
		return nil, err
	}
	rows := make([]ExtPEBSRow, len(p.Benchmarks))
	for i, bench := range p.Benchmarks {
		none := results[i*len(variants)]
		rows[i] = ExtPEBSRow{
			Benchmark:  bench,
			PEBSCoarse: normalizedPerf(none, results[i*len(variants)+1]),
			PEBSFine:   normalizedPerf(none, results[i*len(variants)+2]),
			M5HPT:      normalizedPerf(none, results[i*len(variants)+3]),
		}
	}
	return rows, nil
}
