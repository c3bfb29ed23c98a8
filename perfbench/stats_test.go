package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{4}, 4},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); !near(got, c.want) {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// The expected cut points are what Python's statistics.quantiles(xs, n=4)
// prints for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
	} {
		got := quartiles(c.xs)
		for i := range got {
			if !near(got[i], c.want[i]) {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: tailOf must sort
	}
	return xs
}

func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n     int
		pct   float64
		value float64
		ok    bool
	}{
		{19, 0, 0, false},   // the median would have 9.5 samples beyond
		{20, 50, 10, true},  // exactly 10 beyond the median
		{39, 50, 20, true},  // p75 would have 9.75 beyond
		{40, 75, 30, true},  // exactly 10 beyond p75
		{99, 75, 75, true},  // p90 would have 9.9 beyond
		{100, 90, 90, true}, // exactly 10 beyond p90
		{200, 95, 190, true},
		{1000, 99, 990, true},
		{10000, 99.9, 9990, true},
	} {
		got := tailOf(seq(c.n))
		if got.OK != c.ok || got.N != c.n || (c.ok && (got.Pct != c.pct || !near(got.Value, c.value))) {
			t.Errorf("tailOf(%d samples) = %+v, want p%v=%v ok=%v", c.n, got, c.pct, c.value, c.ok)
		}
	}
}
