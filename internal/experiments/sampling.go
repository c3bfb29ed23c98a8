package experiments

import (
	"fmt"
	"math"
)

// SampleCell is one (seed, benchmark, config) comparison of the
// sampled-fidelity engine against exact ground truth: the same fig9-class
// cell run twice — once exact, once sampled — with the exact elapsed time
// checked against the sampled estimate's declared confidence interval.
type SampleCell struct {
	Seed      int64      `json:"seed"`
	Benchmark string     `json:"benchmark"`
	Config    Fig9Config `json:"config"`
	// ExactNs is the exact engine's ElapsedNs (ground truth).
	ExactNs uint64 `json:"exact_ns"`
	// EstimateNs / CIHalfNs / Windows mirror the sampled Result's
	// sim.SamplingInfo.
	EstimateNs uint64  `json:"estimate_ns"`
	CIHalfNs   float64 `json:"ci_half_ns"`
	Windows    int     `json:"windows"`
	// RelErr is (estimate - exact) / exact.
	RelErr float64 `json:"rel_err"`
	// Covered reports whether the exact value fell inside the declared
	// interval (or, for spans too short to sample, whether the sampled
	// run's exact fallback matched byte for byte).
	Covered bool `json:"covered"`
}

// SampleCoverageReport aggregates the equivalence sweep: the statistical
// contract of sampled mode is that CoverageRate tracks the configured
// confidence (0.95 nominally; the CI gate accepts >= 0.8 to keep seeds
// cheap) and MeanAbsRelErr stays within a few percent.
type SampleCoverageReport struct {
	Cells         []SampleCell `json:"cells"`
	Covered       int          `json:"covered"`
	CoverageRate  float64      `json:"coverage_rate"`
	MeanAbsRelErr float64      `json:"mean_abs_rel_err"`
	MeanWindows   float64      `json:"mean_windows"`
}

// SampleCoverageConfigs returns the fig9 configurations the equivalence
// sweep exercises: the bare machine (no daemon), DAMON (the heaviest
// CPU-kernel share, stressing the exact-kernel term of the estimator),
// and M5's HPT (device tracker + migration daemon).
func SampleCoverageConfigs() []Fig9Config {
	return []Fig9Config{Fig9None, Fig9DAMON, Fig9M5HPT}
}

// SampleCoverage runs the sampled-vs-exact equivalence sweep: for each of
// Params.Points consecutive seeds (starting at Params.Seed), every
// benchmark × SampleCoverageConfigs fig9 cell runs twice — exact and
// sampled — and the exact ElapsedNs is checked against the sampled
// estimate's Student-t interval. Params.Sample itself is ignored (each
// half forces its own tier); SampleWindow, SampleStride, and TargetCI
// shape the sampled half as usual.
func SampleCoverage(p Params) (*SampleCoverageReport, error) {
	p, err := p.prepare()
	if err != nil {
		return nil, err
	}
	cfgs := SampleCoverageConfigs()
	perSeed := len(p.Benchmarks) * len(cfgs)
	n := p.Points * perSeed
	cells, err := mapCells(p, n, func(i int) (SampleCell, error) {
		pc := p
		pc.Seed = p.Seed + int64(i/perSeed)
		bench := p.Benchmarks[(i%perSeed)/len(cfgs)]
		cfg := cfgs[i%len(cfgs)]
		pc.Sample = false
		machine := Cell{Bench: bench, Arm: string(cfg)}
		exact, err := pc.runCell(machine)
		if err != nil {
			return SampleCell{}, fmt.Errorf("sample-coverage exact %s/%s seed %d: %w", bench, cfg, pc.Seed, err)
		}
		pc.Sample = true
		sampled, err := pc.runCell(machine)
		if err != nil {
			return SampleCell{}, fmt.Errorf("sample-coverage sampled %s/%s seed %d: %w", bench, cfg, pc.Seed, err)
		}
		info := sampled.Sampling
		if info == nil {
			return SampleCell{}, fmt.Errorf("sample-coverage %s/%s seed %d: sampled run carried no SamplingInfo", bench, cfg, pc.Seed)
		}
		cell := SampleCell{
			Seed:       pc.Seed,
			Benchmark:  bench,
			Config:     cfg,
			ExactNs:    exact.ElapsedNs,
			EstimateNs: info.EstimateNs,
			CIHalfNs:   info.CIHalfNs,
			Windows:    info.WindowsMeasured,
		}
		if exact.ElapsedNs > 0 {
			cell.RelErr = (float64(info.EstimateNs) - float64(exact.ElapsedNs)) / float64(exact.ElapsedNs)
		}
		if info.WindowsMeasured >= 2 {
			diff := math.Abs(float64(exact.ElapsedNs) - float64(info.EstimateNs))
			cell.Covered = diff <= info.CIHalfNs
		} else {
			// Short-span fallback: the sampled run executed exactly, so the
			// contract collapses to byte-identity.
			cell.Covered = exact.ElapsedNs == sampled.ElapsedNs
		}
		return cell, nil
	})
	if err != nil {
		return nil, err
	}
	rep := &SampleCoverageReport{Cells: cells}
	var absErr, windows float64
	for _, c := range cells {
		if c.Covered {
			rep.Covered++
		}
		absErr += math.Abs(c.RelErr)
		windows += float64(c.Windows)
	}
	if len(cells) > 0 {
		rep.CoverageRate = float64(rep.Covered) / float64(len(cells))
		rep.MeanAbsRelErr = absErr / float64(len(cells))
		rep.MeanWindows = windows / float64(len(cells))
	}
	return rep, nil
}

func runSampleCoverage(p Params) (*Result, error) {
	p.Benchmarks = benchSubset(p.Benchmarks, []string{"pr", "mcf"})
	rep, err := SampleCoverage(p)
	if err != nil {
		return nil, err
	}
	res := newResult()
	t := Table{
		Title:  "Sampled-vs-exact CI coverage (fig9 cells; -points = seed count)",
		Header: []string{"seed", "benchmark", "config", "exact ns", "estimate ns", "ci half ns", "windows", "rel err %", "covered"},
	}
	for _, c := range rep.Cells {
		t.Add(c.Seed, c.Benchmark, string(c.Config), c.ExactNs, c.EstimateNs,
			fmt.Sprintf("%.0f", c.CIHalfNs), c.Windows, 100*c.RelErr, c.Covered)
	}
	res.add("sample-coverage", &t)
	res.metric("cells", float64(len(rep.Cells)))
	res.metric("coverage_rate", rep.CoverageRate)
	res.metric("mean_abs_rel_err", rep.MeanAbsRelErr)
	res.metric("mean_windows", rep.MeanWindows)
	res.notef("headline: %d/%d cells covered (%.1f%%), mean |rel err| %.2f%%, mean windows %.1f",
		rep.Covered, len(rep.Cells), 100*rep.CoverageRate, 100*rep.MeanAbsRelErr, rep.MeanWindows)
	return res, nil
}
