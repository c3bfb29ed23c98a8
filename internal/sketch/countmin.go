package sketch

import (
	"fmt"
	"slices"
)

// CountMinRows is H, the number of hash rows of every CountMin sketch:
// the paper synthesizes its CM-Sketch trackers with H=4 (Table 4) and
// reports only secondary effects for H in 2..16. AddN and Estimate name
// the four rows one by one.
const CountMinRows = 4

// countMinSeeds are the rows' fixed, distinct hash seeds: deterministic
// across runs.
var countMinSeeds = func() (s [CountMinRows]uint64) {
	for r := range s {
		s[r] = splitmix64(uint64(r) + 0x51ed2701)
	}
	return s
}()

// CountMin is the CountMin-Sketch of Cormode & Muthukrishnan, configured as
// in Figure 5 of the paper: CountMinRows hash rows of W counters each. For
// a given address, all rows are probed in parallel (in hardware); the
// estimate is the minimum of the row counters.
//
// The optional conservative-update mode only increments the counters that
// currently hold the minimum, a standard accuracy improvement evaluated as
// an ablation in this reproduction.
type CountMin struct {
	cols         int
	counts       []uint64 // CountMinRows*cols, row-major
	mask         uint64   // cols-1 when cols is a power of two, else 0
	conservative bool
}

// CountMinOption configures a CountMin sketch.
type CountMinOption func(*CountMin)

// WithConservativeUpdate enables conservative update (increment only the
// minimum counters).
func WithConservativeUpdate() CountMinOption {
	return func(c *CountMin) { c.conservative = true }
}

// NewCountMin builds a CountMinRows×cols CountMin sketch.
func NewCountMin(cols int, opts ...CountMinOption) *CountMin {
	if cols <= 0 {
		panic(fmt.Sprintf("sketch: invalid CountMin width %d", cols))
	}
	c := &CountMin{
		cols:   cols,
		counts: make([]uint64, CountMinRows*cols),
	}
	if cols&(cols-1) == 0 && cols > 1 {
		// Power-of-two widths (the common tracker shapes: Entries/Rows)
		// reduce by mask instead of division; h&(cols-1) == h%cols, so
		// the slot choice — and every downstream count — is unchanged.
		c.mask = uint64(cols - 1)
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// slot is key's counter index in row r.
//
//m5:hotpath
func (c *CountMin) slot(r int, key uint64) int {
	h := splitmix64(key ^ countMinSeeds[r])
	if c.mask != 0 {
		return r*c.cols + int(h&c.mask)
	}
	return r*c.cols + int(h%uint64(c.cols))
}

// AddN implements Counter: one pass over the rows equivalent to n
// sequential unit adds. It hashes all four rows' slots before touching
// any counter, and returns the post-increment estimate (the minimum
// across rows, as produced by the comparator tree in Figure 5). Plain
// mode adds n to every row counter. Conservative mode exploits that n
// same-key conservative updates raise exactly the counters below min+n
// to min+n: after each single update every probed slot is at least the
// new minimum, so the target advances by one per occurrence and the
// fixpoint is min+n.
//
//m5:hotpath
func (c *CountMin) AddN(key uint64, n uint64) uint64 {
	i0, i1, i2, i3 := c.slot(0, key), c.slot(1, key), c.slot(2, key), c.slot(3, key)
	counts := c.counts
	if c.conservative {
		target := min(counts[i0], counts[i1], counts[i2], counts[i3]) + n
		counts[i0] = max(counts[i0], target)
		counts[i1] = max(counts[i1], target)
		counts[i2] = max(counts[i2], target)
		counts[i3] = max(counts[i3], target)
		return target
	}
	counts[i0] += n
	counts[i1] += n
	counts[i2] += n
	counts[i3] += n
	return min(counts[i0], counts[i1], counts[i2], counts[i3])
}

// Estimate implements Counter.
func (c *CountMin) Estimate(key uint64) uint64 {
	counts := c.counts
	return min(counts[c.slot(0, key)], counts[c.slot(1, key)], counts[c.slot(2, key)], counts[c.slot(3, key)])
}

// Decay implements Decayer: every counter halves, aging old epochs out
// exponentially instead of discarding them.
func (c *CountMin) Decay() {
	for i := range c.counts {
		c.counts[i] /= 2
	}
}

// Reset implements Counter.
func (c *CountMin) Reset() { clear(c.counts) }

// Entries implements Counter: N = H×W.
func (c *CountMin) Entries() int { return CountMinRows * c.cols }

// Clone implements Counter.
func (c *CountMin) Clone() Counter {
	d := *c
	d.counts = slices.Clone(c.counts)
	return &d
}
