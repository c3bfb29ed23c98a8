package sketch

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// rowCountMin is CountMin as it stood with a rows parameter: per-row
// seeds in a slice, a per-row index call that reloads the seed, width and
// mask, and a scratch slice for conservative update's second pass.
// CountMin at CountMinRows must reproduce it counter for counter.
type rowCountMin struct {
	rows, cols   int
	counts       []uint64
	seeds        []uint64
	idx          []int
	mask         uint64
	conservative bool
}

func newRowCountMin(rows, cols int, conservative bool) *rowCountMin {
	c := &rowCountMin{
		rows: rows, cols: cols, conservative: conservative,
		counts: make([]uint64, rows*cols),
		seeds:  make([]uint64, rows),
		idx:    make([]int, rows),
	}
	for i := range c.seeds {
		c.seeds[i] = splitmix64(uint64(i) + 0x51ed2701)
	}
	if cols&(cols-1) == 0 && cols > 1 {
		c.mask = uint64(cols - 1)
	}
	return c
}

func (c *rowCountMin) index(row int, key uint64) int {
	h := splitmix64(key ^ c.seeds[row])
	if m := c.mask; m != 0 {
		return row*c.cols + int(h&m)
	}
	return row*c.cols + int(h%uint64(c.cols))
}

func (c *rowCountMin) addN(key uint64, n uint64) uint64 {
	if c.conservative {
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

func (c *rowCountMin) estimate(key uint64) uint64 {
	min := ^uint64(0)
	for r := 0; r < c.rows; r++ {
		if v := c.counts[c.index(r, key)]; v < min {
			min = v
		}
	}
	return min
}

// TestCountMinMatchesRowOracle pins CountMin to rowCountMin at
// CountMinRows rows: the same AddN return and Estimate on every step and
// the same counter array throughout, plain and conservative, at widths
// that reduce by mask (128, 8192), by modulo (12, 25) and to one column,
// crediting weight 1 or 7. Decay and Reset are mixed in.
func TestCountMinMatchesRowOracle(t *testing.T) {
	for _, cols := range []int{1, 12, 25, 128, 8192} {
		for _, conservative := range []bool{false, true} {
			for _, n := range []uint64{1, 7} {
				t.Run(fmt.Sprintf("W%d/conservative=%v/n%d", cols, conservative, n), func(t *testing.T) {
					var opts []CountMinOption
					if conservative {
						opts = append(opts, WithConservativeUpdate())
					}
					c, o := NewCountMin(cols, opts...), newRowCountMin(CountMinRows, cols, conservative)
					rng := rand.New(rand.NewSource(int64(cols)))
					keys := 4*cols + 8
					for step := 0; step < 5000; step++ {
						switch rng.Intn(500) {
						case 0:
							c.Reset()
							clear(o.counts)
						case 1:
							c.Decay()
							for i := range o.counts {
								o.counts[i] /= 2
							}
						}
						key := uint64(rng.Intn(keys)) * 0x9e37
						if got, want := c.AddN(key, n), o.addN(key, n); got != want {
							t.Fatalf("step %d: AddN(%d, %d) = %d, oracle %d", step, key, n, got, want)
						}
						probe := uint64(rng.Intn(keys)) * 0x9e37
						if got, want := c.Estimate(probe), o.estimate(probe); got != want {
							t.Fatalf("step %d: Estimate(%d) = %d, oracle %d", step, probe, got, want)
						}
						if step%100 == 0 && !slices.Equal(c.counts, o.counts) {
							t.Fatalf("step %d: counter arrays differ", step)
						}
					}
					if !slices.Equal(c.counts, o.counts) {
						t.Fatal("counter arrays differ at the end")
					}
				})
			}
		}
	}
}
