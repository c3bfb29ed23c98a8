package stats

import "math/rand"

// Reservoir is a fixed-memory percentile estimator: Vitter's Algorithm R
// over a bounded sample. Long simulations record millions of per-operation
// latencies; the reservoir keeps percentile queries O(k) and memory O(k)
// while remaining an unbiased sample of the stream.
type Reservoir struct {
	capacity int
	seed     int64
	xs       []float64
	seen     uint64
	src      *countedSource
	rng      *rand.Rand
}

// countedSource wraps the standard PRNG source and counts draws, so the
// reservoir's RNG position can be captured and replayed exactly (the PRNG's
// internal state is not otherwise exportable). Every Rand method the
// reservoir uses consumes exactly one source step.
type countedSource struct {
	src   rand.Source64
	draws uint64
}

func (c *countedSource) Int63() int64 {
	c.draws++
	return c.src.Int63()
}

func (c *countedSource) Uint64() uint64 {
	c.draws++
	return c.src.Uint64()
}

func (c *countedSource) Seed(seed int64) {
	c.draws = 0
	c.src.Seed(seed)
}

// NewReservoir builds a reservoir holding up to capacity observations,
// with a deterministic seed (simulations must reproduce exactly).
func NewReservoir(capacity int, seed int64) *Reservoir {
	if capacity <= 0 {
		capacity = 1 << 14
	}
	src := &countedSource{src: rand.NewSource(seed).(rand.Source64)}
	return &Reservoir{
		capacity: capacity,
		seed:     seed,
		xs:       make([]float64, 0, capacity),
		src:      src,
		rng:      rand.New(src),
	}
}

// ReservoirSnapshot is a deep copy of a reservoir's state, including the
// RNG position, so a restored reservoir continues the identical sequence
// of replacement decisions.
type ReservoirSnapshot struct {
	xs    []float64
	seen  uint64
	draws uint64
}

// Snapshot captures the reservoir state.
func (r *Reservoir) Snapshot() ReservoirSnapshot {
	return ReservoirSnapshot{
		xs:    append([]float64(nil), r.xs...),
		seen:  r.seen,
		draws: r.src.draws,
	}
}

// Restore rewinds the reservoir to a snapshot taken from a reservoir of
// the same capacity and seed. The RNG is replayed from the seed by
// discarding the recorded number of draws.
func (r *Reservoir) Restore(s ReservoirSnapshot) {
	r.xs = append(r.xs[:0], s.xs...)
	r.seen = s.seen
	r.src.src = rand.NewSource(r.seed).(rand.Source64)
	r.src.draws = 0
	for r.src.draws < s.draws {
		r.src.src.Uint64()
		r.src.draws++
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
	if j := r.rng.Uint64() % r.seen; j < uint64(r.capacity) {
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
