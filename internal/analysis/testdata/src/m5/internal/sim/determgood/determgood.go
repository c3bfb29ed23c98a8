// Package determgood exercises the allowed determinism patterns: nothing
// in this file may be reported.
package determgood

import (
	"math/rand"
	"slices"
	"sort"
)

// SortedKeys collects map keys and sorts them before use.
func SortedKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Sum folds commutatively over the values.
func Sum(m map[string]uint64) uint64 {
	var total uint64
	for _, v := range m {
		total += v
	}
	return total
}

// Invert writes through keyed targets only.
func Invert(m map[string]int) map[int]string {
	inv := make(map[int]string, len(m))
	for k, v := range m {
		inv[v] = k
	}
	return inv
}

// Prune deletes while iterating, which Go defines and the analyzer
// allows.
func Prune(m map[string]int, bad int) {
	for k, v := range m {
		if v == bad {
			delete(m, k)
		}
	}
}

// Draw uses an explicitly seeded generator.
func Draw(seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	return rng.Float64()
}

// Reviewed carries an order-invariance annotation with justification.
func Reviewed(m map[string]int) int {
	best := 0
	//m5:orderinvariant max over values, a commutative reduction.
	for _, v := range m {
		if v > best {
			best = v
		}
	}
	return best
}

// WindowOffset places a sampling window as a pure hash of (seed, stream
// position): no RNG state, so identical runs measure identical windows.
func WindowOffset(seed int64, position uint64, period int) int {
	z := uint64(seed) ^ (position * 0x9e3779b97f4a7c15)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(period))
}

// PromoteDense collects the dense units, sorts them, then promotes in
// head order, so which units move never depends on map order.
func PromoteDense(hits map[uint64]int, dense int, promote func(uint64) error) int {
	heads := make([]uint64, 0, len(hits))
	for head, h := range hits {
		if h >= dense {
			heads = append(heads, head)
		}
	}
	slices.Sort(heads)
	n := 0
	for _, head := range heads {
		if err := promote(head); err == nil {
			n++
		}
	}
	return n
}

// Widths sizes each entry with builtins and conversions, which run no
// caller code.
func Widths(m map[string][]int) map[string]uint64 {
	out := make(map[string]uint64, len(m))
	for k, v := range m {
		n := uint64(len(v))
		if max(len(v), 1) > 8 {
			n = 8
		}
		out[k] = n
	}
	return out
}

// Totals calls out only with values the loop does not produce.
func Totals(m map[string]int, scale func() int) int {
	total := 0
	for _, v := range m {
		f := scale()
		if f > 0 {
			total += v * f
		}
	}
	return total
}

// Scale folds integers into an outer total and floats only through
// keyed writes, each of which one iteration owns.
func Scale(m map[string]int, scaled map[string]float64) int {
	total := 0
	for k, v := range m {
		total += v
		scaled[k] += float64(v) * 0.5
	}
	return total
}
