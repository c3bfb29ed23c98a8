package stats

import "slices"

// Reservoir is a fixed-memory percentile estimator: Vitter's Algorithm R
// over a bounded sample. Long simulations record millions of per-operation
// latencies; the reservoir keeps percentile queries O(k) and memory O(k)
// while remaining an unbiased sample of the stream. The sample grows on
// demand up to its capacity, so a reservoir that sees few observations
// holds few.
type Reservoir struct {
	capacity int
	xs       []float64
	seen     uint64
	src      *CountedSource
}

// NewReservoir builds a reservoir holding up to capacity observations,
// with a deterministic seed (simulations must reproduce exactly).
func NewReservoir(capacity int, seed int64) *Reservoir {
	if capacity <= 0 {
		capacity = 1 << 14
	}
	return &Reservoir{capacity: capacity, src: NewCountedSource(seed)}
}

// Clone returns an independent copy: the same sample, count and RNG
// position, so it makes the replacement decisions r would.
func (r *Reservoir) Clone() *Reservoir {
	return &Reservoir{
		capacity: r.capacity,
		xs:       slices.Clone(r.xs),
		seen:     r.seen,
		src:      r.src.Clone(),
	}
}

// Add records one observation.
//
//m5:hotpath
func (r *Reservoir) Add(x float64) {
	r.seen++
	if len(r.xs) < r.capacity {
		r.xs = append(r.xs, x)
		return
	}
	if j := r.src.Uint64() % r.seen; j < uint64(r.capacity) {
		r.xs[j] = x
	}
}

// Seen returns how many observations have been offered.
func (r *Reservoir) Seen() uint64 { return r.seen }

// Len returns how many observations are retained.
func (r *Reservoir) Len() int { return len(r.xs) }

// Percentile returns the p-th percentile of the retained sample
// (nearest-rank), or 0 when empty. It selects the rank in O(n) rather
// than sorting, and leaves the retained sample reordered. Which slot an
// Add past capacity replaces depends on that order, so a query between
// Adds changes which observations stay; the engine queries only at the
// end of a span and resets the reservoir at the start of the next, so
// the order never reaches an output.
func (r *Reservoir) Percentile(p float64) float64 {
	n := len(r.xs)
	if n == 0 {
		return 0
	}
	rank := n
	if p <= 0 {
		rank = 1
	} else if p < 100 {
		rank = min(max(int(float64(n)*p/100+0.9999), 1), n)
	}
	return selectRank(r.xs, rank-1)
}

// selectRank reorders xs so that xs[k] holds the value sorting would put
// there, and returns it. It is quickselect with Hoare's partition, which
// splits runs of equal values (latencies repeat often) evenly instead of
// degrading on them. The pivot is the median of three elements at
// positions drawn from a fixed-seed LCG: deterministic, yet no ordered
// input (ascending, organ-pipe, sawtooth) lines up with it to force the
// quadratic case.
func selectRank(xs []float64, k int) float64 {
	lo, hi := 0, len(xs)-1
	var lcg uint64
	pick := func() float64 {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		return xs[lo+int((lcg>>33)%uint64(hi-lo+1))]
	}
	for lo < hi {
		a, b, c := pick(), pick(), pick()
		if a > b {
			a, b = b, a
		}
		pivot := min(b, max(a, c))
		// Afterwards xs[lo:j+1] <= pivot <= xs[i:hi+1], and anything
		// between the two equals the pivot.
		i, j := lo, hi
		for i <= j {
			for xs[i] < pivot {
				i++
			}
			for xs[j] > pivot {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return xs[k]
		}
	}
	return xs[k]
}

// Reset clears the reservoir for a new measurement span.
func (r *Reservoir) Reset() {
	r.xs = r.xs[:0]
	r.seen = 0
}
