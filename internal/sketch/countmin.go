package sketch

import "fmt"

// CountMin is the CountMin-Sketch of Cormode & Muthukrishnan, configured as
// in Figure 5 of the paper: H hash rows of W counters each. For a given
// address, all H rows are probed in parallel (in hardware); the estimate is
// the minimum of the H counters.
//
// The optional conservative-update mode only increments the counters that
// currently hold the minimum, a standard accuracy improvement evaluated as
// an ablation in this reproduction.
type CountMin struct {
	rows         int
	cols         int
	counts       []uint64 // rows*cols, row-major
	seeds        []uint64
	idx          []int  // per-AddN scratch: one slot index per row
	mask         uint64 // cols-1 when cols is a power of two, else 0
	conservative bool
}

// CountMinOption configures a CountMin sketch.
type CountMinOption func(*CountMin)

// WithConservativeUpdate enables conservative update (increment only the
// minimum counters).
func WithConservativeUpdate() CountMinOption {
	return func(c *CountMin) { c.conservative = true }
}

// NewCountMin builds an H×W CountMin sketch. The paper fixes H=4 for the
// Table 4 synthesis results and observes only secondary effects for H in
// 2..16.
func NewCountMin(rows, cols int, opts ...CountMinOption) *CountMin {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("sketch: invalid CountMin shape %dx%d", rows, cols))
	}
	c := &CountMin{
		rows:   rows,
		cols:   cols,
		counts: make([]uint64, rows*cols),
		seeds:  make([]uint64, rows),
		idx:    make([]int, rows),
	}
	for i := range c.seeds {
		// Fixed, distinct per-row seeds: deterministic across runs.
		c.seeds[i] = splitmix64(uint64(i) + 0x51ed2701)
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

//m5:hotpath
func (c *CountMin) index(row int, key uint64) int {
	h := splitmix64(key ^ c.seeds[row])
	if m := c.mask; m != 0 {
		return row*c.cols + int(h&m)
	}
	return row*c.cols + int(h%uint64(c.cols))
}

// AddN implements Counter: one O(rows) pass equivalent to n sequential
// unit adds. It returns the post-increment estimate (the minimum across
// rows, as produced by the comparator tree in Figure 5). Plain mode adds
// n to every row counter. Conservative mode exploits that n same-key
// conservative updates raise exactly the counters below min+n to min+n:
// after each single update every probed slot is at least the new
// minimum, so the target advances by one per occurrence and the fixpoint
// is min+n.
//
//m5:hotpath
func (c *CountMin) AddN(key uint64, n uint64) uint64 {
	if c.conservative {
		// Hash each row once into the scratch index buffer: the estimate
		// pass and the update pass reuse the same slots.
		min := ^uint64(0)
		for r := 0; r < c.rows; r++ {
			i := c.index(r, key)
			c.idx[r] = i
			if c.counts[i] < min {
				min = c.counts[i]
			}
		}
		target := min + n
		for _, i := range c.idx {
			if c.counts[i] < target {
				c.counts[i] = target
			}
		}
		return target
	}
	min := ^uint64(0)
	for r := 0; r < c.rows; r++ {
		i := c.index(r, key)
		c.counts[i] += n
		if c.counts[i] < min {
			min = c.counts[i]
		}
	}
	return min
}

// Estimate implements Counter.
func (c *CountMin) Estimate(key uint64) uint64 {
	min := ^uint64(0)
	for r := 0; r < c.rows; r++ {
		if v := c.counts[c.index(r, key)]; v < min {
			min = v
		}
	}
	return min
}

// Decay implements Decayer: every counter halves, aging old epochs out
// exponentially instead of discarding them.
func (c *CountMin) Decay() {
	for i := range c.counts {
		c.counts[i] /= 2
	}
}

// Reset implements Counter.
func (c *CountMin) Reset() {
	for i := range c.counts {
		c.counts[i] = 0
	}
}

// Entries implements Counter: N = H×W.
func (c *CountMin) Entries() int { return c.rows * c.cols }

// Shape returns (H, W).
func (c *CountMin) Shape() (rows, cols int) { return c.rows, c.cols }
