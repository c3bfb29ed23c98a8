package stats

import (
	"math/rand"
	"sort"
)

// Reservoir is a fixed-memory percentile estimator: Vitter's Algorithm R
// over a bounded sample. Long simulations record millions of per-operation
// latencies; the reservoir keeps percentile queries O(k log k) and memory
// O(k) while remaining an unbiased sample of the stream.
type Reservoir struct {
	capacity int
	seed     int64
	xs       []float64
	seen     uint64
	src      *countedSource
	rng      *rand.Rand
	sorted   bool
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
	xs     []float64
	seen   uint64
	draws  uint64
	sorted bool
}

// Snapshot captures the reservoir state.
func (r *Reservoir) Snapshot() ReservoirSnapshot {
	return ReservoirSnapshot{
		xs:     append([]float64(nil), r.xs...),
		seen:   r.seen,
		draws:  r.src.draws,
		sorted: r.sorted,
	}
}

// Restore rewinds the reservoir to a snapshot taken from a reservoir of
// the same capacity and seed. The RNG is replayed from the seed by
// discarding the recorded number of draws.
func (r *Reservoir) Restore(s ReservoirSnapshot) {
	r.xs = append(r.xs[:0], s.xs...)
	r.seen = s.seen
	r.sorted = s.sorted
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
		r.sorted = false
		return
	}
	if j := r.rng.Uint64() % r.seen; j < uint64(r.capacity) {
		r.xs[j] = x
		r.sorted = false
	}
}

// Seen returns how many observations have been offered.
func (r *Reservoir) Seen() uint64 { return r.seen }

// Len returns how many observations are retained.
func (r *Reservoir) Len() int { return len(r.xs) }

// Percentile returns the p-th percentile of the retained sample
// (nearest-rank), or 0 when empty.
func (r *Reservoir) Percentile(p float64) float64 {
	if len(r.xs) == 0 {
		return 0
	}
	if !r.sorted {
		sort.Float64s(r.xs)
		r.sorted = true
	}
	if p <= 0 {
		return r.xs[0]
	}
	if p >= 100 {
		return r.xs[len(r.xs)-1]
	}
	rank := int(float64(len(r.xs))*p/100 + 0.9999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(r.xs) {
		rank = len(r.xs)
	}
	return r.xs[rank-1]
}

// Reset clears the reservoir for a new measurement span.
func (r *Reservoir) Reset() {
	r.xs = r.xs[:0]
	r.seen = 0
	r.sorted = false
}
