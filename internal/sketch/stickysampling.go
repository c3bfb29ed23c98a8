package sketch

import (
	"math/rand"

	"m5/internal/stats"
)

// StickySampling is the sampling-based streaming algorithm of Manku &
// Motwani, the third family the paper surveys for top-K tracking (§5.1).
// A key already tracked is always counted; an untracked key is admitted
// with probability 1/rate. The rate doubles each time the tracked set
// grows past the capacity budget, and counts are probabilistically pruned
// at each rate change, keeping memory bounded.
//
// Counts live in an open-addressed CountTable: the AddN hot path is
// allocation-free, and rescale consumes randomness in slot order — a
// deterministic function of the insertion history — where the previous
// map-backed version iterated in Go's randomized map order and therefore
// produced run-to-run different prune decisions from the same seed.
type StickySampling struct {
	capacity int
	rate     uint64
	counts   *CountTable
	src      *stats.CountedSource // counts draws, so a clone resumes the stream
	rng      *rand.Rand
}

// NewStickySampling builds a sticky sampler with the given entry budget and
// deterministic seed.
func NewStickySampling(capacity int, seed int64) *StickySampling {
	if capacity <= 0 {
		panic("sketch: StickySampling capacity must be positive")
	}
	src := stats.NewCountedSource(seed)
	return &StickySampling{
		capacity: capacity,
		rate:     1,
		counts:   NewCountTable(capacity + 1),
		src:      src,
		rng:      rand.New(src),
	}
}

// Clone implements Counter. The clone's RNG resumes at the sampler's
// position.
func (s *StickySampling) Clone() Counter {
	src := s.src.Clone()
	return &StickySampling{
		capacity: s.capacity,
		rate:     s.rate,
		counts:   s.counts.Clone(),
		src:      src,
		rng:      rand.New(src),
	}
}

// AddN implements Counter by running n single admissions in order: a
// tracked key is always counted, and an untracked one draws from the RNG
// per occurrence, so a rescale can prune the key partway through a run
// and no closed form matches the sequential outcome.
//
//m5:hotpath
func (s *StickySampling) AddN(key uint64, n uint64) uint64 {
	est := s.counts.Get(key) // the key's count before each admission
	for ; n > 0; n-- {
		if est > 0 {
			est = s.counts.Inc(key, 1)
			continue
		}
		if s.rate == 1 || s.rng.Uint64()%s.rate == 0 {
			s.counts.Set(key, 1)
			if s.counts.Len() > s.capacity {
				//m5:coldpath rate doubling when the tracked set overflows.
				s.rescale()
			}
			est = s.counts.Get(key)
		}
	}
	return est
}

// rescale doubles the sampling rate and prunes entries: for each tracked
// key, repeatedly toss a fair coin and decrement until heads; entries
// reaching zero are dropped (the Manku-Motwani adjustment).
func (s *StickySampling) rescale() {
	s.rate *= 2
	s.counts.Filter(func(_, c uint64) (uint64, bool) {
		for c > 0 && s.rng.Intn(2) == 0 {
			c--
		}
		return c, c > 0
	})
}

// Estimate implements Counter.
func (s *StickySampling) Estimate(key uint64) uint64 { return s.counts.Get(key) }

// Reset implements Counter. The sampling rate also resets.
func (s *StickySampling) Reset() {
	s.rate = 1
	s.counts.Reset()
}

// Entries implements Counter.
func (s *StickySampling) Entries() int { return s.capacity }

// Tracked returns the number of keys currently tracked.
func (s *StickySampling) Tracked() int { return s.counts.Len() }
