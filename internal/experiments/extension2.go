package experiments

import (
	"fmt"
	"math"

	"m5/internal/baseline"
	m5mgr "m5/internal/m5"
	"m5/internal/sim"
	"m5/internal/tiermem"
	"m5/internal/tracker"
	"m5/internal/workload"
)

// ExtContentionRow is one point of the multi-instance contention study:
// the paper's SPECrate setup (8 co-running copies, §6) on the shared CXL
// device channel, with and without M5 migration.
type ExtContentionRow struct {
	Benchmark string
	Instances int
	// ThroughputNone / ThroughputM5 are total accesses per simulated
	// second across all cores; the accesses include the warm spans'
	// (contentionRun).
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
	results, err := mapCells(p, len(instanceCounts)*2, func(i int) (float64, error) {
		n, withM5 := instanceCounts[i/2], i%2 == 1
		tput, err := contentionRun(p, bench, n, withM5)
		if err != nil {
			name := "none"
			if withM5 {
				name = "m5"
			}
			return 0, fmt.Errorf("contention %s x%d/%s: %w", bench, n, name, err)
		}
		return tput, nil
	})
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

// contentionRun runs one cell — instances co-running copies of bench on
// seeds Seed, Seed+1, ... — and returns its throughput in accesses per
// simulated second.
func contentionRun(p Params, bench string, instances int, withM5 bool) (float64, error) {
	streams := make([]workload.Generator, 0, instances)
	closeAll := func() {
		for _, g := range streams {
			g.Close()
		}
	}
	for i := 0; i < instances; i++ {
		q := p
		q.Seed = p.Seed + int64(i)
		g, err := q.newGenerator(bench)
		if err != nil {
			closeAll()
			return 0, err
		}
		streams = append(streams, g)
	}
	cfg := sim.Config{
		Workload:  streams[0],
		CoRunning: streams[1:],
		Bandwidth: true,
		// COMPAT: the deleted multi-core engine never flushed TLBs on a
		// context switch; no deadline is ever reached.
		CtxSwitchPeriodNs: math.MaxUint64,
	}
	if withM5 {
		cfg.HPT = &tracker.Config{Algorithm: tracker.CMSketch, Entries: 32 * 1024, K: 64}
	}
	p.applySpeed(&cfg) // co-running machines stay exact
	r, err := sim.NewRunner(cfg)
	if err != nil {
		closeAll()
		return 0, err
	}
	defer r.Close()
	if withM5 {
		r.SetDaemon(m5mgr.NewManager(r.Sys, r.Ctrl, m5mgr.ManagerConfig{Mode: m5mgr.HPTOnly}))
	}
	per := p.Accesses / instances
	if per < 10_000 {
		per = 10_000
	}
	// Warm to migration steady state, as the single-core harnesses do:
	// the fill phase must amortize before measurement or the slowest copy
	// (the daemon's core-mate) is dominated by one-time migrate_pages work.
	chunk := p.Warmup / instances
	if chunk < 10_000 {
		chunk = 10_000
	}
	warm := r.Run(chunk).Accesses
	prev := r.Sys.Promotions()
	for i := 0; i < 20; i++ {
		if r.Sys.Node(tiermem.NodeDDR).FreePages() == 0 {
			break
		}
		warm += r.Run(chunk).Accesses
		if r.Sys.Promotions() == prev {
			break
		}
		prev = r.Sys.Promotions()
	}
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
	const perBench = 4
	results, err := mapCells(p, len(p.Benchmarks)*perBench, func(i int) (sim.Result, error) {
		bench := p.Benchmarks[i/perBench]
		switch i % perBench {
		case 0:
			return fig9Run(p, bench, Fig9None)
		case 1:
			return pebsRun(p, bench, 1000)
		case 2:
			return pebsRun(p, bench, 100)
		default:
			return fig9Run(p, bench, Fig9M5HPT)
		}
	})
	if err != nil {
		return nil, err
	}
	rows := make([]ExtPEBSRow, len(p.Benchmarks))
	for i, bench := range p.Benchmarks {
		none := results[i*perBench]
		rows[i] = ExtPEBSRow{
			Benchmark:  bench,
			PEBSCoarse: normalizedPerf(bench, none, results[i*perBench+1]),
			PEBSFine:   normalizedPerf(bench, none, results[i*perBench+2]),
			M5HPT:      normalizedPerf(bench, none, results[i*perBench+3]),
		}
	}
	return rows, nil
}

func pebsRun(p Params, bench string, rate uint64) (sim.Result, error) {
	wl, err := p.newGenerator(bench)
	if err != nil {
		return sim.Result{}, err
	}
	cfg := sim.Config{Workload: wl}
	p.applySpeed(&cfg)
	r, err := sim.NewRunner(cfg)
	if err != nil {
		wl.Close()
		return sim.Result{}, err
	}
	defer r.Close()
	footPages := int(wl.Footprint() / 4096)
	pebs := baseline.NewPEBS(r.Sys, baseline.PEBSConfig{
		SampleRate: rate,
		HotK:       maxInt(footPages/64, 16),
		Migrate:    true,
	})
	r.AttachMissSink(pebs)
	r.SetDaemon(pebs)
	warmToSteadyState(r, p.Warmup)
	return r.Run(p.Accesses), nil
}
