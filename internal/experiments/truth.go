package experiments

import (
	"slices"

	"m5/internal/cam"
	"m5/internal/sketch"
	"m5/internal/tracker"
)

// epochTruth is the exact reference a tracker replay is scored against,
// for one (trace, granularity, epoch policy): the trace's tracker keys,
// the query points the policy places, and each epoch's exact counts. It
// depends only on those three, so every (algorithm, N) cell of Figure 7
// replays the same truth instead of recounting it, and cells share it
// read-only. It holds no hash tables: an epoch's counts are one run of
// (key, count) pairs, scanned for the few keys a query reports — a
// linear scan of the run costs less than sorting it once for binary
// search, even across Figure 7's fourteen cells.
type epochTruth struct {
	keys []uint64 // tracker key of every trace entry
	// weights are the entries' credits; nil when every credit is 1 (every
	// exact-mode trace), so the truth need not keep the trace's slice.
	weights []uint64
	epochs  []truthEpoch
}

// truthEpoch is one query epoch: entries [previous end, end), where the
// first epoch starts at 0 and the last ends at len(keys). A policy
// boundary before entry i ends an epoch at i, so an epoch may be empty.
type truthEpoch struct {
	end int
	run []sketch.KeyCount // exact counts, one pair per distinct key
	// best[j] is the summed count of the j+1 largest counts (all of them
	// when the epoch has fewer keys), for j below the truth's k — what
	// the streaming scorer's selection returned, since a top-k sum does
	// not depend on ties.
	best []uint64
}

// newEpochTruth counts a weighted trace once under the given key
// granularity and epoch policy, for queries reporting up to k keys. The
// policy is called once per entry in order, as the streaming scorer
// called it, so a stateful policy (EpochByTime) places the same
// boundaries. Nil weights credit every entry once.
func newEpochTruth(wt WeightedTrace, gran tracker.Granularity, epoch EpochPolicy, k int) *epochTruth {
	t := &epochTruth{keys: make([]uint64, len(wt.Accs))}
	if slices.ContainsFunc(wt.Weights, func(w uint64) bool { return w != 1 }) {
		t.weights = wt.Weights
	}
	counts := sketch.NewCountTable(1024)
	var top []uint64
	closeEpoch := func(end int) {
		ep := truthEpoch{end: end, run: make([]sketch.KeyCount, 0, counts.Len()), best: make([]uint64, k)}
		top = top[:0]
		counts.Range(func(key, c uint64) bool {
			ep.run = append(ep.run, sketch.KeyCount{Key: key, Count: c})
			top = keepLargest(top, c, k)
			return true
		})
		var sum uint64
		for j := range ep.best {
			if j < len(top) {
				sum += top[j]
			}
			ep.best[j] = sum
		}
		t.epochs = append(t.epochs, ep)
		counts.Reset()
	}
	for i, a := range wt.Accs {
		if epoch(a, i) {
			closeEpoch(i)
		}
		key := gran.Key(a.Addr)
		t.keys[i] = key
		counts.Inc(key, t.weight(i))
	}
	closeEpoch(len(wt.Accs))
	return t
}

// weight is entry i's credit.
func (t *epochTruth) weight(i int) uint64 {
	if t.weights == nil {
		return 1
	}
	return t.weights[i]
}

// score replays the truth's keys into tr, a tracker built from cfg,
// querying it at every epoch end, and returns the mean epoch ratio (0
// when no epoch scored). A nil tr is built at the first epoch that needs
// a replay. An epoch the tracker counts exactly (Config.CountsExactly)
// is not replayed: it folds best/best, exactly the 1 its replay would
// fold (nothing when every count is 0), and the tracker stays fresh, as
// the query's reset would leave it. The tracker must report at most k
// keys per query.
func (t *epochTruth) score(cfg tracker.Config, tr *tracker.Tracker) float64 {
	var ratios epochRatios
	lo := 0
	for _, ep := range t.epochs {
		if cfg.CountsExactly(tr, len(ep.run)) {
			if len(ep.run) > 0 {
				best := ep.best[min(len(ep.run), len(ep.best))-1]
				ratios.add(best, best)
			}
			lo = ep.end
			continue
		}
		if tr == nil {
			tr = tracker.New(cfg)
		}
		for i := lo; i < ep.end; i++ {
			tr.ObserveKeyN(t.keys[i], t.weight(i))
		}
		lo = ep.end
		top := tr.Query()
		if len(top) == 0 || len(ep.run) == 0 {
			continue
		}
		ratios.add(exactGot(top, ep.run), ep.best[len(top)-1])
	}
	return ratios.mean()
}

// exactGot sums the exact counts the reported keys hold in an epoch's
// run (0 for keys the epoch never saw).
func exactGot(top []cam.Entry, run []sketch.KeyCount) uint64 {
	var got uint64
	for _, e := range top {
		for _, kc := range run {
			if kc.Key == e.Addr {
				got += kc.Count
				break
			}
		}
	}
	return got
}

// keepLargest folds v into top, the largest values seen so far (at most
// k) in descending order — an O(k) insertion, k being the CAM size (5 in
// the paper). Only sums of the kept values are ever taken, and a sum
// does not depend on how ties are broken.
func keepLargest(top []uint64, v uint64, k int) []uint64 {
	switch {
	case len(top) < k:
		top = append(top, v)
	case k > 0 && v > top[k-1]:
		top[k-1] = v
	default:
		return top
	}
	for i := len(top) - 1; i > 0 && top[i] > top[i-1]; i-- {
		top[i], top[i-1] = top[i-1], top[i]
	}
	return top
}

// epochRatios folds per-epoch access-count ratios — the exact count held
// by the reported keys over the best achievable with as many keys — into
// their mean, in epoch order.
type epochRatios struct {
	sum float64
	n   int
}

// add folds one scored epoch; an epoch whose best is 0 carries no ratio.
func (r *epochRatios) add(got, best uint64) {
	if best > 0 {
		r.sum += float64(got) / float64(best)
		r.n++
	}
}

// mean is the mean epoch ratio, 0 when no epoch carried one.
func (r epochRatios) mean() float64 {
	if r.n == 0 {
		return 0
	}
	return r.sum / float64(r.n)
}
