package experiments

import (
	"fmt"

	"m5/internal/hwcost"
	"m5/internal/trace"
	"m5/internal/tracker"
)

// Fig7Entries is the N sweep of Figure 7 / Table 4.
var Fig7Entries = []int{50, 100, 512, 1024, 2048, 8192, 32768}

// Fig7Benchmarks are the six workloads the paper traces for the
// design-space exploration (§7.1).
func Fig7Benchmarks() []string {
	return []string{"cactu", "foto", "lib.", "mcf", "pr", "roms"}
}

// Fig7Row is one bar of Figure 7: the average per-epoch access-count ratio
// of a top-K tracker configuration, for both HPT (a) and HWT (b).
type Fig7Row struct {
	Benchmark string
	Algorithm tracker.Algorithm
	Entries   int
	// HPTRatio / HWTRatio are relative to exact per-epoch counting
	// (PAC/WAC ground truth).
	HPTRatio float64
	HWTRatio float64
	// FPGAFeasible / ASICFeasible report the 400MHz timing feasibility
	// from the synthesis model.
	FPGAFeasible bool
	ASICFeasible bool
}

// Fig7 reproduces Figure 7 (§7.1): collect a cache-filtered, time-stamped
// CXL access trace per benchmark (the paper uses Pin+Ramulator), then
// replay it into Space-Saving and CM-Sketch top-K trackers across the N
// sweep, scoring each query epoch against exact counting. Query periods
// follow the paper: 1ms for HPT, 100µs for HWT, K=5.
func Fig7(p Params) ([]Fig7Row, error) {
	p, err := p.prepare()
	if err != nil {
		return nil, err
	}
	if len(p.Benchmarks) == 0 {
		p.Benchmarks = Fig7Benchmarks()
	}
	// Phase 1: collect one cache-filtered trace per benchmark and count
	// its exact per-epoch truth once per granularity. Phase 2: replay each
	// (benchmark, algorithm, N) cell against those truths; the replay only
	// reads them, so cells fan out freely, and a cell builds its tracker
	// only when an epoch it cannot count exactly arrives (epochTruth.score).
	// The trace carries per-entry weights: exact runs record every access
	// at weight 1 (byte-identical to the unweighted path), sampled runs
	// record one entry per simulated access with the engine's
	// Horvitz-Thompson credit, so the 2×|algs|×|entries| replays below each
	// touch a fraction of the credited stream. The truths hold the keys and
	// weights the replays need, so the trace's access records are dropped
	// once they are counted.
	type truthPair struct{ hpt, hwt *epochTruth }
	truths, err := mapCells(p, len(p.Benchmarks), func(i int) (truthPair, error) {
		bench := p.Benchmarks[i]
		wt, err := CollectWeightedCXLTrace(p, bench)
		if err != nil {
			return truthPair{}, fmt.Errorf("fig7 %s: %w", bench, err)
		}
		if len(wt.Accs) == 0 {
			return truthPair{}, fmt.Errorf("fig7 %s: empty trace", bench)
		}
		return truthPair{
			hpt: newEpochTruth(wt, tracker.PageGranularity, EpochByTime(1_000_000), fig7K),
			hwt: newEpochTruth(wt, tracker.WordGranularity, EpochByTime(100_000), fig7K),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	algs := []tracker.Algorithm{tracker.SpaceSaving, tracker.CMSketch}
	perBench := len(algs) * len(Fig7Entries)
	return mapCells(p, len(p.Benchmarks)*perBench, func(i int) (Fig7Row, error) {
		alg := algs[i%perBench/len(Fig7Entries)]
		n := Fig7Entries[i%len(Fig7Entries)]
		truth := truths[i/perBench]
		return Fig7Row{
			Benchmark: p.Benchmarks[i/perBench],
			Algorithm: alg,
			Entries:   n,
			HPTRatio: truth.hpt.score(tracker.Config{
				Granularity: tracker.PageGranularity, Algorithm: alg, Entries: n, K: fig7K}, nil),
			HWTRatio: truth.hwt.score(tracker.Config{
				Granularity: tracker.WordGranularity, Algorithm: alg, Entries: n, K: fig7K}, nil),
			FPGAFeasible: hwcost.Feasible(designOf(alg), hwcost.FPGA, n),
			ASICFeasible: hwcost.Feasible(designOf(alg), hwcost.ASIC7nm, n),
		}, nil
	})
}

// fig7K is the top-K size of every Figure 7 tracker (§7.1).
const fig7K = 5

func designOf(alg tracker.Algorithm) hwcost.Design {
	if alg == tracker.SpaceSaving {
		return hwcost.SpaceSavingCAM
	}
	return hwcost.CMSketchSRAM
}

// WeightedTrace is a cache-filtered device trace with per-entry
// Horvitz-Thompson weights. Exact runs produce weight-1 entries (the plain
// trace, byte for byte); sampled runs produce one entry per *simulated*
// access carrying the credit the engine assigned it, so replay-based
// scoring costs scale with the simulated stream, not the credited one.
type WeightedTrace struct {
	Accs    []trace.Access
	Weights []uint64
}

// weightedRecorder records the device snoop stream with weights: the
// sampled engine's O(1) weighted crediting lands as one entry instead of
// n repeats.
type weightedRecorder struct{ wt *WeightedTrace }

func (r weightedRecorder) ObserveN(a trace.Access, n uint64) {
	r.wt.Accs = append(r.wt.Accs, a)
	r.wt.Weights = append(r.wt.Weights, n)
}

// CollectWeightedCXLTrace runs a benchmark through the full machine with
// no migration and records the cache-filtered access stream the CXL
// device serves (what the AFU snoop path sees), with per-entry weights:
// all 1 under the exact engine.
func CollectWeightedCXLTrace(p Params, bench string) (WeightedTrace, error) {
	r, _, err := p.newCellRunner(Cell{Bench: bench}, nil)
	if err != nil {
		return WeightedTrace{}, err
	}
	defer r.Close()
	var wt WeightedTrace
	r.Ctrl.Device.Attach(weightedRecorder{wt: &wt})
	r.Run(p.Warmup + p.Accesses)
	return wt, nil
}

// EpochPolicy decides query-epoch boundaries during trace replay.
type EpochPolicy func(a trace.Access, index int) bool

// EpochByTime ends an epoch whenever the trace timestamp advances past the
// period (1ms for HPT, 100µs for HWT in the paper).
func EpochByTime(periodNs uint64) EpochPolicy {
	var next uint64
	return func(a trace.Access, _ int) bool {
		if next == 0 {
			next = a.Time + periodNs
			return false
		}
		if a.Time >= next {
			next = a.Time + periodNs
			return true
		}
		return false
	}
}

// ScoreTrackerOnWeightedTrace replays a weighted trace into a tracker,
// querying at epoch boundaries and scoring each epoch's reported top-K
// against exact counting of the same epoch. It returns the mean epoch
// ratio (0 when no epoch produced a score). Each entry flows into the
// tracker and the exact reference with its weight (Tracker.ObserveKeyN):
// all 1 for every exact-mode collection, while sampled-mode weights keep
// both sides of each epoch ratio unbiased in expectation with the replay
// touching only the simulated subset of the stream; nil weights count
// every entry once. It builds the trace's epoch truth and scores the
// tracker against it; Figure 7 builds each truth once for all its cells.
// An epoch the tracker would count exactly scores 1 without a replay, so
// the tracker observes and answers queries only in the epochs it replays.
func ScoreTrackerOnWeightedTrace(tr *tracker.Tracker, wt WeightedTrace, epoch EpochPolicy) float64 {
	cfg := tr.Config()
	return newEpochTruth(wt, cfg.Granularity, epoch, cfg.K).score(cfg, tr)
}
