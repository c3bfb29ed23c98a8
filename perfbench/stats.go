package main

import (
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of xs (the mean of the two middle values
// for an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points that split xs into four equal
// groups, computed like Python's statistics.quantiles(xs, n=4) (the
// default "exclusive" method), so spreads printed here match the ones the
// acceptance check computes. A single sample is its own quartiles.
func quartiles(xs []float64) [3]float64 {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return [3]float64{}
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		// Python clamps j to 1..n-1 and then extrapolates with the
		// unclamped delta.
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

// tailPercentiles is the ladder tail reports climb.
var tailPercentiles = []float64{50, 75, 90, 95, 99, 99.9}

// tail is the highest percentile of a latency sample that still has at
// least ten samples beyond it, with the sample count behind it. OK is
// false when even the median has fewer than ten samples above it.
type tail struct {
	Pct   float64
	Value float64
	N     int
	OK    bool
}

// tailOf applies the reporting rule: climb the percentile ladder while
// n*(1-p/100) >= 10 samples lie beyond the percentile; the value is the
// nearest-rank percentile.
func tailOf(xs []float64) tail {
	t := tail{N: len(xs)}
	for _, p := range tailPercentiles {
		if float64(len(xs))*(1-p/100) < 10-1e-9 {
			break
		}
		t.Pct, t.OK = p, true
	}
	if t.OK {
		t.Value = percentile(xs, t.Pct)
	}
	return t
}

// percentile is the nearest-rank p-th percentile of xs; 0 for no
// samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	// The epsilon keeps float rounding (99.9/100*10000 = 9990.000…02)
	// from pushing an exact rank one place up.
	rank := int(math.Ceil(p/100*float64(len(s)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}
