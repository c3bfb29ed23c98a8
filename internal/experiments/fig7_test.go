package experiments

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"m5/internal/sketch"
	"m5/internal/tracker"
)

// streamScore is the per-cell streaming scorer Figure 7 ran before the
// shared epoch truth, kept here as the reference: it counts the epoch
// exactly alongside the tracker and scores each query on the spot, with
// the best achievable sum taken from a full sort of the epoch's counts.
func streamScore(tr *tracker.Tracker, wt WeightedTrace, epoch EpochPolicy) float64 {
	gran := tr.Config().Granularity
	exact := sketch.NewCountTable(1024)
	var ratios []float64
	score := func() {
		top := tr.Query()
		if len(top) > 0 && exact.Len() > 0 {
			var got uint64
			for _, e := range top {
				got += exact.Get(e.Addr)
			}
			var counts []uint64
			exact.Range(func(_, c uint64) bool {
				counts = append(counts, c)
				return true
			})
			slices.Sort(counts)
			slices.Reverse(counts)
			var best uint64
			for _, c := range counts[:min(len(top), len(counts))] {
				best += c
			}
			if best > 0 {
				ratios = append(ratios, float64(got)/float64(best))
			}
		}
		exact.Reset()
	}
	for i, a := range wt.Accs {
		if epoch(a, i) {
			score()
		}
		key := gran.Key(a.Addr)
		tr.ObserveKeyN(key, wt.Weights[i])
		exact.Inc(key, wt.Weights[i])
	}
	score()
	if len(ratios) == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range ratios {
		sum += r
	}
	return sum / float64(len(ratios))
}

// fig7Reference recomputes Figure 7 cell by cell with the streaming
// scorer, each cell recounting its own exact truth.
func fig7Reference(t *testing.T, p Params) []Fig7Row {
	t.Helper()
	var rows []Fig7Row
	for _, bench := range p.Benchmarks {
		wt, err := CollectWeightedCXLTrace(p, bench)
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range []tracker.Algorithm{tracker.SpaceSaving, tracker.CMSketch} {
			for _, n := range Fig7Entries {
				cell := func(g tracker.Granularity) *tracker.Tracker {
					return tracker.New(tracker.Config{Granularity: g, Algorithm: alg, Entries: n, K: 5})
				}
				rows = append(rows, Fig7Row{
					Benchmark: bench, Algorithm: alg, Entries: n,
					HPTRatio: streamScore(cell(tracker.PageGranularity), wt, EpochByTime(1_000_000)),
					HWTRatio: streamScore(cell(tracker.WordGranularity), wt, EpochByTime(100_000)),
				})
			}
		}
	}
	return rows
}

// sameFig7Rows compares rows bit for bit: a ratio that drifts in its last
// place fails.
func sameFig7Rows(t *testing.T, got, want []Fig7Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d rows, want %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if g.Benchmark != w.Benchmark || g.Algorithm != w.Algorithm || g.Entries != w.Entries ||
			math.Float64bits(g.HPTRatio) != math.Float64bits(w.HPTRatio) ||
			math.Float64bits(g.HWTRatio) != math.Float64bits(w.HWTRatio) {
			t.Errorf("row %d: %s %v N=%d HPT %v HWT %v, want %s %v N=%d HPT %v HWT %v", i,
				g.Benchmark, g.Algorithm, g.Entries, g.HPTRatio, g.HWTRatio,
				w.Benchmark, w.Algorithm, w.Entries, w.HPTRatio, w.HWTRatio)
		}
	}
}

// TestFig7MatchesStreamingScorer pins Figure 7's shared-truth rows to the
// per-cell streaming scorer, in exact mode (unit weights) and on the
// sampled tier (Horvitz-Thompson weights), at the smallest N, at 512 and
// 1024, where cells mix skipped and replayed epochs, at the Space-Saving
// ASIC limit and at the largest N.
func TestFig7MatchesStreamingScorer(t *testing.T) {
	if testing.Short() {
		t.Skip("collects and scores the QuickParams traces twice")
	}
	saved := Fig7Entries
	Fig7Entries = []int{50, 512, 1024, 2048, 32768}
	defer func() { Fig7Entries = saved }()
	for _, sample := range []bool{false, true} {
		t.Run(fmt.Sprintf("sample=%v", sample), func(t *testing.T) {
			p := QuickParams()
			p.Sample = sample
			if sample {
				wt, err := CollectWeightedCXLTrace(p, p.Benchmarks[0])
				if err != nil {
					t.Fatal(err)
				}
				if !slices.ContainsFunc(wt.Weights, func(w uint64) bool { return w != 1 }) {
					t.Fatal("sampled trace carries only unit weights; the weighted path goes untested")
				}
			}
			rows, err := Fig7(p)
			if err != nil {
				t.Fatal(err)
			}
			sameFig7Rows(t, rows, fig7Reference(t, p))
		})
	}
}

// ScoreTrackerOnWeightedTrace at all-ones weights must score exactly as
// with nil weights (the plain trace m5trace replay passes), and both as
// the streaming reference, for every tracker family (Sticky Sampling
// replays weights one occurrence at a time) and for decay-on-query
// epochs.
func TestScoreTrackerUnitWeightsMatchTrace(t *testing.T) {
	p := tinyParams("mcf")
	p.Warmup, p.Accesses = 20_000, 80_000
	collected, err := CollectWeightedCXLTrace(p.withDefaults(), "mcf")
	if err != nil {
		t.Fatal(err)
	}
	accs := collected.Accs
	ones := make([]uint64, len(accs))
	for i := range ones {
		ones[i] = 1
	}
	wt := WeightedTrace{Accs: accs, Weights: ones}
	for _, alg := range []tracker.Algorithm{tracker.CMSketch, tracker.SpaceSaving, tracker.StickySampling, tracker.ConservativeCMSketch} {
		for _, decay := range []bool{false, true} {
			for _, gran := range []tracker.Granularity{tracker.PageGranularity, tracker.WordGranularity} {
				cfg := tracker.Config{Granularity: gran, Algorithm: alg, Entries: 512, K: 5, DecayOnQuery: decay}
				epoch := func() EpochPolicy { return EpochByTime(200_000) }
				plain := ScoreTrackerOnWeightedTrace(tracker.New(cfg), WeightedTrace{Accs: accs}, epoch())
				weighted := ScoreTrackerOnWeightedTrace(tracker.New(cfg), wt, epoch())
				ref := streamScore(tracker.New(cfg), wt, epoch())
				if math.Float64bits(plain) != math.Float64bits(weighted) || math.Float64bits(plain) != math.Float64bits(ref) {
					t.Errorf("%v/%v decay=%v: trace %v, weighted %v, reference %v", alg, gran, decay, plain, weighted, ref)
				}
				if plain == 0 {
					t.Errorf("%v/%v decay=%v: no epoch scored", alg, gran, decay)
				}
			}
		}
	}
}

// The epoch truths are the first state Figure 7's workers share: every
// cell reads its benchmark's truths while other cells replay them. The
// worker count must not show up in the rows.
func TestFig7ParallelMatchesSerial(t *testing.T) {
	p := tinyParams("roms", "mcf")
	p.Warmup, p.Accesses = 20_000, 60_000
	saved := Fig7Entries
	Fig7Entries = []int{50, 2048}
	defer func() { Fig7Entries = saved }()

	p.Parallel = 1
	serial, err := Fig7(p)
	if err != nil {
		t.Fatal(err)
	}
	p.Parallel = 4
	par, err := Fig7(p)
	if err != nil {
		t.Fatal(err)
	}
	sameFig7Rows(t, par, serial)
}

// BenchmarkFig7ScoreCell times one Figure 7 cell — a fresh tracker
// replayed against a benchmark's page- and word-keyed epoch truths — per
// algorithm and N; the truths are built once outside the timer.
func BenchmarkFig7ScoreCell(b *testing.B) {
	p := QuickParams()
	wt, err := CollectWeightedCXLTrace(p, "mcf")
	if err != nil {
		b.Fatal(err)
	}
	page := newEpochTruth(wt, tracker.PageGranularity, EpochByTime(1_000_000), fig7K)
	word := newEpochTruth(wt, tracker.WordGranularity, EpochByTime(100_000), fig7K)
	for _, alg := range []tracker.Algorithm{tracker.SpaceSaving, tracker.CMSketch} {
		for _, n := range []int{50, 2048, 32768} {
			b.Run(fmt.Sprintf("%v/N%d", alg, n), func(b *testing.B) {
				b.ReportAllocs()
				var hpt, hwt float64
				for i := 0; i < b.N; i++ {
					hpt = page.score(tracker.Config{Granularity: tracker.PageGranularity, Algorithm: alg, Entries: n, K: fig7K}, nil)
					hwt = word.score(tracker.Config{Granularity: tracker.WordGranularity, Algorithm: alg, Entries: n, K: fig7K}, nil)
				}
				b.ReportMetric(hpt, "hpt-ratio")
				b.ReportMetric(hwt, "hwt-ratio")
			})
		}
	}
}
