// Package sketch implements the streaming frequency-estimation algorithms
// the paper evaluates for the M5 top-K trackers (§5.1): CountMin-Sketch
// (the chosen algorithm), Space-Saving (the Mithril-style counter-based
// alternative), and Sticky Sampling (the sampling-based representative).
// An exact map-based counter serves as the oracle in tests and as the PAC
// reference in simulations.
//
// All counters share one contract: keys are opaque uint64 values (PFNs for
// HPT, word numbers for HWT), AddN records n occurrences and returns the
// estimate after the increment, and Reset clears state for the next epoch.
package sketch

// Decayer is implemented by counters that support exponential aging:
// halving all counts retains inter-epoch memory where Reset discards it,
// the classic alternative the DESIGN ablations compare.
type Decayer interface {
	// Decay halves every stored count, dropping entries that reach zero.
	Decay()
}

// Counter estimates per-key occurrence counts over a stream.
type Counter interface {
	// AddN records n occurrences of key and returns the estimated count
	// after the increment, the estimate n sequential AddN(key, 1) calls
	// reach. The exact simulator engine credits weight 1; the sampled
	// tier passes Horvitz-Thompson access weights without replaying the
	// stream. AddN(key, 0) is Estimate.
	AddN(key uint64, n uint64) uint64
	// Estimate returns the current estimated count of key without
	// modifying state.
	Estimate(key uint64) uint64
	// Reset clears all state, starting a fresh epoch.
	Reset()
	// Entries returns the algorithm's count capacity N (H×W for
	// CM-Sketch, the counter-table size for Space-Saving), the design
	// parameter swept in Figure 7 and Table 4.
	Entries() int
	// Clone returns an independent copy that shares no state with the
	// original and, fed the same stream, makes every decision it would.
	Clone() Counter
}

// splitmix64 is the 64-bit finalizer from the SplitMix64 generator; it is
// the hash family used by CM-Sketch rows (seeded per row).
//
//m5:hotpath
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Exact is the oracle counter: an unbounded exact frequency table. It
// models PAC/WAC-style exact counting in simulator contexts where the full
// hardware model of package pac is not needed. The backing store is an
// open-addressed CountTable, so the per-access AddN path is allocation-free
// once the table reaches the workload's cardinality.
type Exact struct {
	counts *CountTable
}

// NewExact returns an empty exact counter.
func NewExact() *Exact {
	return &Exact{counts: NewCountTable(1024)}
}

// AddN implements Counter.
//
//m5:hotpath
func (e *Exact) AddN(key uint64, n uint64) uint64 {
	if n == 0 {
		return e.counts.Get(key)
	}
	return e.counts.Inc(key, n)
}

// Estimate implements Counter.
func (e *Exact) Estimate(key uint64) uint64 { return e.counts.Get(key) }

// Reset implements Counter.
func (e *Exact) Reset() { e.counts.Reset() }

// Entries implements Counter; an exact counter is unbounded, so this
// reports the current cardinality.
func (e *Exact) Entries() int { return e.counts.Len() }

// Clone implements Counter.
func (e *Exact) Clone() Counter { return &Exact{counts: e.counts.Clone()} }

// Decay implements Decayer.
func (e *Exact) Decay() {
	e.counts.Filter(func(_, v uint64) (uint64, bool) {
		if v <= 1 {
			return 0, false
		}
		return v / 2, true
	})
}

// Counts materializes the counts as a map so tests and experiment
// harnesses can rank keys exactly (not a hot path).
func (e *Exact) Counts() map[uint64]uint64 { return e.counts.Counts() }
