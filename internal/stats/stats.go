// Package stats provides the small statistical toolkit used across the M5
// reproduction: percentile estimation over a bounded reservoir, CDFs over
// access-count distributions (Figure 10), and running moments.
package stats

import (
	"math"
	"sort"
)

// Running accumulates count/mean/variance in one pass (Welford).
type Running struct {
	n    uint64
	mean float64
	m2   float64
}

// Add records one observation.
//
//m5:hotpath
func (r *Running) Add(x float64) {
	r.n++
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// N returns the observation count.
func (r *Running) N() uint64 { return r.n }

// Mean returns the running mean.
func (r *Running) Mean() float64 { return r.mean }

// CDF is an empirical cumulative distribution over uint64 values, used for
// the per-page access-count distribution of Figure 10.
type CDF struct {
	xs []uint64
}

// NewCDF builds a CDF over a copy of the values.
func NewCDF(values []uint64) *CDF {
	xs := make([]uint64, len(values))
	copy(xs, values)
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	return &CDF{xs: xs}
}

// At returns P(X <= x).
func (c *CDF) At(x uint64) float64 {
	if len(c.xs) == 0 {
		return 0
	}
	idx := sort.Search(len(c.xs), func(i int) bool { return c.xs[i] > x })
	return float64(idx) / float64(len(c.xs))
}

// Quantile returns the smallest value v with P(X <= v) >= q, for q in (0,1].
func (c *CDF) Quantile(q float64) uint64 {
	if len(c.xs) == 0 {
		return 0
	}
	if q <= 0 {
		return c.xs[0]
	}
	rank := int(math.Ceil(q * float64(len(c.xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(c.xs) {
		rank = len(c.xs)
	}
	return c.xs[rank-1]
}

// Len returns the number of underlying values.
func (c *CDF) Len() int { return len(c.xs) }

// LogPoints samples the CDF at the given log10 positions (matching the
// x-axis of Figure 10, log10 of access count) and returns P(X <= 10^p).
func (c *CDF) LogPoints(log10s []float64) []float64 {
	out := make([]float64, len(log10s))
	for i, p := range log10s {
		out[i] = c.At(uint64(math.Pow(10, p)))
	}
	return out
}
