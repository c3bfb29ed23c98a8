package experiments

import (
	m5mgr "m5/internal/m5"
	"m5/internal/tracker"
)

// Ablation harnesses for the design decisions DESIGN.md calls out. They
// are not paper figures; they probe the sensitivity of M5's results to its
// tunables, the exercise §7.2 describes informally ("we simply try a few
// reasonable values of n ... and choose the best").

// FscaleRow is one point of the Elector-exponent sweep.
type FscaleRow struct {
	Benchmark string
	N         float64
	// NormPerf is performance normalized to no migration.
	NormPerf float64
}

// AblationFscale sweeps Algorithm 1's fscale exponent n over the paper's
// 3..6 range (plus 1 as a near-constant-frequency control).
func AblationFscale(p Params, exponents []float64) ([]FscaleRow, error) {
	p, err := p.prepare()
	if err != nil {
		return nil, err
	}
	if len(exponents) == 0 {
		exponents = []float64{1, 3, 4, 5, 6}
	}
	// Cells per benchmark: the no-migration baseline, then M5(HPT) at
	// each exponent.
	variants := []Cell{{}}
	for _, n := range exponents {
		variants = append(variants, Cell{Arm: "m5-hpt", Elector: m5mgr.ElectorConfig{N: n}})
	}
	results, err := runEach(p, "fscale", benchGrid(p.Benchmarks, variants...), p.runCell)
	if err != nil {
		return nil, err
	}
	rows := make([]FscaleRow, 0, len(p.Benchmarks)*len(exponents))
	for i, bench := range p.Benchmarks {
		none := results[i*len(variants)]
		for j, n := range exponents {
			rows = append(rows, FscaleRow{
				Benchmark: bench,
				N:         n,
				NormPerf:  normalizedPerf(none, results[i*len(variants)+1+j]),
			})
		}
	}
	return rows, nil
}

// ConservativeUpdateRow compares plain and conservative-update CM-Sketch
// accuracy at one N.
type ConservativeUpdateRow struct {
	Benchmark string
	Entries   int
	Plain     float64
	Conserved float64
}

// AblationConservativeUpdate scores both CM-Sketch variants on the same
// traces (HPT, 1ms epochs, K=5).
func AblationConservativeUpdate(p Params, entries []int) ([]ConservativeUpdateRow, error) {
	p, err := p.prepare()
	if err != nil {
		return nil, err
	}
	if len(entries) == 0 {
		entries = []int{512, 2048, 32768}
	}
	traces, err := mapCells(p, len(p.Benchmarks), func(i int) (WeightedTrace, error) {
		return CollectWeightedCXLTrace(p, p.Benchmarks[i])
	})
	if err != nil {
		return nil, err
	}
	return mapCells(p, len(p.Benchmarks)*len(entries), func(i int) (ConservativeUpdateRow, error) {
		bench := p.Benchmarks[i/len(entries)]
		n := entries[i%len(entries)]
		wt := traces[i/len(entries)]
		plain := ScoreTrackerOnWeightedTrace(
			tracker.New(tracker.Config{Algorithm: tracker.CMSketch, Entries: n, K: 5}),
			wt, EpochByTime(1_000_000))
		cons := ScoreTrackerOnWeightedTrace(
			tracker.New(tracker.Config{Algorithm: tracker.ConservativeCMSketch, Entries: n, K: 5}),
			wt, EpochByTime(1_000_000))
		return ConservativeUpdateRow{
			Benchmark: bench, Entries: n, Plain: plain, Conserved: cons,
		}, nil
	})
}

// DecayRow compares epoch handling on query: hardware reset (the paper's
// design) vs exponential decay (DESIGN §4 item 6) — decay carries momentum
// across epochs, which helps stable hot sets and hurts drifting ones.
type DecayRow struct {
	Benchmark string
	Reset     float64
	Decay     float64
}

// AblationDecay scores both epoch policies on the same traces (HPT, 1ms
// epochs, K=5, CM-Sketch 2048 so epoch state actually matters).
func AblationDecay(p Params) ([]DecayRow, error) {
	p, err := p.prepare()
	if err != nil {
		return nil, err
	}
	return mapCells(p, len(p.Benchmarks), func(i int) (DecayRow, error) {
		bench := p.Benchmarks[i]
		wt, err := CollectWeightedCXLTrace(p, bench)
		if err != nil {
			return DecayRow{}, err
		}
		reset := ScoreTrackerOnWeightedTrace(
			tracker.New(tracker.Config{Algorithm: tracker.CMSketch, Entries: 2048, K: 5}),
			wt, EpochByTime(1_000_000))
		decay := ScoreTrackerOnWeightedTrace(
			tracker.New(tracker.Config{Algorithm: tracker.CMSketch, Entries: 2048, K: 5, DecayOnQuery: true}),
			wt, EpochByTime(1_000_000))
		return DecayRow{Benchmark: bench, Reset: reset, Decay: decay}, nil
	})
}

// QueryIntervalRow is one point of the query-period sensitivity study
// (§7.1's closing observation: preciseness increases as the interval
// decreases).
type QueryIntervalRow struct {
	Benchmark string
	PeriodNs  uint64
	Accuracy  float64
}

// AblationQueryInterval sweeps the HPT query period.
func AblationQueryInterval(p Params, periodsNs []uint64) ([]QueryIntervalRow, error) {
	p, err := p.prepare()
	if err != nil {
		return nil, err
	}
	if len(periodsNs) == 0 {
		periodsNs = []uint64{100_000, 1_000_000, 10_000_000}
	}
	traces, err := mapCells(p, len(p.Benchmarks), func(i int) (WeightedTrace, error) {
		return CollectWeightedCXLTrace(p, p.Benchmarks[i])
	})
	if err != nil {
		return nil, err
	}
	return mapCells(p, len(p.Benchmarks)*len(periodsNs), func(i int) (QueryIntervalRow, error) {
		bench := p.Benchmarks[i/len(periodsNs)]
		period := periodsNs[i%len(periodsNs)]
		acc := ScoreTrackerOnWeightedTrace(
			tracker.New(tracker.Config{Algorithm: tracker.CMSketch, Entries: 32 * 1024, K: 5}),
			traces[i/len(periodsNs)], EpochByTime(period))
		return QueryIntervalRow{Benchmark: bench, PeriodNs: period, Accuracy: acc}, nil
	})
}
