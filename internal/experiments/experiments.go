// Package experiments contains one harness per table and figure of the
// paper's evaluation (§4, §7). Each harness assembles workloads, trackers,
// baselines, and the simulator, runs the experiment, and returns typed
// rows that cmd/m5bench renders as the paper's tables/series and
// bench_test.go regenerates as Go benchmarks.
//
// Absolute numbers differ from the paper (the substrate is a simulator,
// not the authors' Xeon + Agilex-7 testbed); the shapes the paper reports
// — who wins, by roughly what factor, where the exceptions sit — are the
// reproduction targets, recorded in EXPERIMENTS.md.
package experiments

import (
	"fmt"

	"m5/internal/parallel"
	"m5/internal/sim"
	"m5/internal/workload"
	"m5/internal/workload/tape"
)

// Params sizes an experiment run.
type Params struct {
	// Scale selects workload instance sizes.
	Scale workload.Scale
	// Warmup is the access count executed before measurement.
	Warmup int
	// Accesses is the measured access count per run.
	Accesses int
	// Points is how many checkpoints sample the access-count ratio
	// (the paper samples 10 execution points).
	Points int
	// Seed drives all randomness.
	Seed int64
	// Benchmarks lists the workloads (defaults to the paper's twelve).
	Benchmarks []string
	// Parallel is the worker count used to fan independent experiment
	// cells across cores (0 or negative = runtime.NumCPU()). Results
	// are bit-identical to a serial run for any value: each cell is a
	// pure function of (Params, cell identity) and rows are reassembled
	// in submission order.
	Parallel int
	// CollectObs attaches a private observability registry to each
	// experiment cell measured through runCell; the per-layer snapshot
	// rides back on sim.Result.Obs, and Figure 9 merges its cells' into
	// Result.Obs. Each cell owns its registry, so collection stays
	// bit-identical at any Parallel setting.
	CollectObs bool
	// Tapes, when set, serves every cell's access stream from a shared
	// record-once/replay-many tape pool instead of running each
	// workload's program afresh. Streams replayed from a tape are
	// byte-identical to live generation, so every harness result is
	// unchanged; only the wall clock moves.
	Tapes *tape.Pool
	// Warm, when set, serves warmed machine checkpoints from a shared
	// store (the serve frontend's copy-on-write checkpoint tree) instead
	// of each cell re-running its own warmup. Checkpoint forks are
	// byte-identical to fresh warmups, so every harness result is
	// unchanged; only the wall clock moves. Nil means warm locally.
	Warm WarmSource
	// Sample switches every cell to the simulator's SMARTS-style sampled
	// fidelity tier (sim.Config.Sampling): functional warming between
	// detailed measurement windows, headline times reported as estimates
	// with Student-t confidence intervals. UNLIKE tapes and warm
	// checkpoints this is not byte-identical — the contract is
	// statistical (see SampleCoverage) — so it is off by default
	// everywhere.
	Sample bool
	// SampleWindow / SampleStride override the sampled tier's detailed
	// window and functional stride lengths in accesses (0 keeps the
	// simulator defaults). Inert unless Sample is set.
	SampleWindow int
	SampleStride int
	// TargetCI, when positive, lets sampled cells stop measuring early
	// once the relative 95% CI half-width falls below it (the error
	// budget). Inert unless Sample is set.
	TargetCI float64
}

// newGenerator builds the access stream for one experiment cell, serving
// it from the shared tape pool when one is configured and falling back
// to a fresh catalog generator otherwise.
func (p Params) newGenerator(bench string) (workload.Generator, error) {
	if p.Tapes != nil {
		return p.Tapes.Open(bench, p.Scale, p.Seed)
	}
	return workload.New(bench, p.Scale, p.Seed)
}

// applySpeed copies the sampling tier into one cell's simulator config.
// newCellRunner routes every cell's sim.Config through this so -sample
// reaches every cell. The tier is statistical (see Params.Sample), and it models
// neither co-running cores nor bandwidth queues, so such machines stay
// exact.
//
//m5:plumb sim.SamplingConfig
func (p Params) applySpeed(cfg *sim.Config) {
	if p.Sample && len(cfg.CoRunning) == 0 && !cfg.Bandwidth {
		cfg.Sampling = sim.SamplingConfig{
			Mode:             sim.SampleModeSampled,
			DetailedWindow:   p.SampleWindow,
			FunctionalStride: p.SampleStride,
			TargetCI:         p.TargetCI,
			Seed:             p.Seed,
		}
	}
}

// QuickParams returns a reduced configuration for tests: tiny instances,
// sub-million access budgets, a benchmark subset that still covers every
// workload family (graph, SPEC-dense, SPEC-skewed, KVS, ML).
func QuickParams() Params {
	return Params{
		Scale:      workload.ScaleTiny,
		Warmup:     100_000,
		Accesses:   400_000,
		Points:     4,
		Seed:       1,
		Benchmarks: []string{"lib.", "pr", "mcf", "roms", "redis"},
	}
}

func (p Params) withDefaults() Params {
	if p.Accesses == 0 {
		p.Accesses = 1_000_000
	}
	if p.Points == 0 {
		p.Points = 10
	}
	if len(p.Benchmarks) == 0 {
		p.Benchmarks = workload.Names()
	}
	return p
}

// mapCells fans n independent experiment cells across p.Parallel
// workers and returns results in cell order — the single entry point
// every harness uses, so serial (Parallel=1) and parallel runs emit
// identical rows.
func mapCells[T any](p Params, n int, f func(i int) (T, error)) ([]T, error) {
	return parallel.Map(p.Parallel, n, f)
}

// Ratio summarizes a metric sampled at several execution points (the
// vertical min-max bars of Figure 3).
type Ratio struct {
	Mean float64
	Min  float64
	Max  float64
}

// NewRatio folds samples into the summary.
func NewRatio(samples []float64) Ratio {
	if len(samples) == 0 {
		return Ratio{}
	}
	r := Ratio{Min: samples[0], Max: samples[0]}
	sum := 0.0
	for _, s := range samples {
		sum += s
		if s < r.Min {
			r.Min = s
		}
		if s > r.Max {
			r.Max = s
		}
	}
	r.Mean = sum / float64(len(samples))
	return r
}

// String renders mean [min, max].
func (r Ratio) String() string {
	return fmt.Sprintf("%.3f [%.3f, %.3f]", r.Mean, r.Min, r.Max)
}
