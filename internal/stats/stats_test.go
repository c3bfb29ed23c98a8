package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestRunningMoments(t *testing.T) {
	var r Running
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	for _, x := range xs {
		r.Add(x)
	}
	if r.N() != 8 {
		t.Errorf("N = %d", r.N())
	}
	if r.Mean() != 5 {
		t.Errorf("Mean = %v, want 5", r.Mean())
	}
	// Squared deviations from 5 sum to 32 over n-1 = 7 degrees of freedom.
	if got := r.SampleVariance(); math.Abs(got-32.0/7) > 1e-12 {
		t.Errorf("SampleVariance = %v, want 32/7", got)
	}
}

func TestRunningMatchesSampleMean(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var r Running
		sum := 0.0
		for i := 0; i < 64; i++ {
			x := rng.Float64() * 1000
			r.Add(x)
			sum += x
		}
		return math.Abs(r.Mean()-sum/64) < 1e-9
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]uint64{1, 2, 2, 3, 10, 100})
	if got := c.At(0); got != 0 {
		t.Errorf("At(0) = %v", got)
	}
	if got := c.At(2); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("At(2) = %v, want 0.5", got)
	}
	if got := c.At(100); got != 1 {
		t.Errorf("At(100) = %v, want 1", got)
	}
	if got := c.Quantile(0.5); got != 2 {
		t.Errorf("Quantile(0.5) = %v, want 2", got)
	}
	if got := c.Quantile(1.0); got != 100 {
		t.Errorf("Quantile(1.0) = %v, want 100", got)
	}
}

func TestCDFMonotone(t *testing.T) {
	if err := quick.Check(func(vals []uint64) bool {
		if len(vals) == 0 {
			return true
		}
		for i := range vals {
			vals[i] %= 10000
		}
		c := NewCDF(vals)
		prev := -1.0
		for x := uint64(0); x < 10000; x += 97 {
			p := c.At(x)
			if p < prev {
				return false
			}
			prev = p
		}
		return c.At(10000) == 1
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCDFLogPoints(t *testing.T) {
	vals := make([]uint64, 1000)
	for i := range vals {
		vals[i] = uint64(i + 1)
	}
	c := NewCDF(vals)
	pts := c.LogPoints([]float64{0, 1, 2, 3})
	// P(X <= 1)=0.001, P(X <= 10)=0.01, P(X <= 100)=0.1, P(X <= 1000)=1.
	want := []float64{0.001, 0.01, 0.1, 1}
	for i := range pts {
		if math.Abs(pts[i]-want[i]) > 1e-9 {
			t.Errorf("LogPoints[%d] = %v, want %v", i, pts[i], want[i])
		}
	}
}

func TestCDFDoesNotAliasInput(t *testing.T) {
	vals := []uint64{5, 1, 3}
	c := NewCDF(vals)
	vals[0] = 1000
	if got := c.At(5); got != 1 {
		t.Errorf("CDF changed when input mutated: At(5) = %v", got)
	}
}

func TestReservoirBelowCapacityIsExact(t *testing.T) {
	r := NewReservoir(100, 1)
	for i := 1; i <= 50; i++ {
		r.Add(float64(i))
	}
	if r.Len() != 50 || r.Seen() != 50 {
		t.Fatalf("Len=%d Seen=%d", r.Len(), r.Seen())
	}
	if got := r.Percentile(50); got != 25 {
		t.Errorf("p50 = %v, want 25", got)
	}
	if got := r.Percentile(100); got != 50 {
		t.Errorf("p100 = %v, want 50", got)
	}
	if got := r.Percentile(0); got != 1 {
		t.Errorf("p0 = %v, want 1", got)
	}
}

func TestReservoirBoundedMemory(t *testing.T) {
	r := NewReservoir(64, 2)
	for i := 0; i < 100000; i++ {
		r.Add(float64(i))
	}
	if r.Len() != 64 {
		t.Errorf("Len = %d, want capacity 64", r.Len())
	}
	if r.Seen() != 100000 {
		t.Errorf("Seen = %d", r.Seen())
	}
}

func TestReservoirApproximatesPercentiles(t *testing.T) {
	// Uniform [0, 1M): the sampled p50 must land near 500K.
	r := NewReservoir(4096, 3)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 500000; i++ {
		r.Add(float64(rng.Intn(1_000_000)))
	}
	p50 := r.Percentile(50)
	if p50 < 450_000 || p50 > 550_000 {
		t.Errorf("sampled p50 = %v, want ~500000", p50)
	}
	p99 := r.Percentile(99)
	if p99 < 950_000 {
		t.Errorf("sampled p99 = %v, want ~990000", p99)
	}
}

func TestReservoirResetAndEmpty(t *testing.T) {
	r := NewReservoir(8, 4)
	if r.Percentile(50) != 0 {
		t.Error("empty percentile should be 0")
	}
	r.Add(5)
	r.Reset()
	if r.Len() != 0 || r.Seen() != 0 || r.Percentile(50) != 0 {
		t.Error("Reset should clear")
	}
	r.Add(7)
	if r.Percentile(50) != 7 {
		t.Error("reservoir should be reusable")
	}
}

func TestReservoirDeterminism(t *testing.T) {
	run := func() float64 {
		r := NewReservoir(32, 5)
		for i := 0; i < 10000; i++ {
			r.Add(float64(i * 7 % 1000))
		}
		return r.Percentile(90)
	}
	if run() != run() {
		t.Error("same seed should reproduce the same sample")
	}
}

func TestReservoirDefaultCapacity(t *testing.T) {
	if NewReservoir(0, 1).capacity != 1<<14 {
		t.Error("default capacity")
	}
}

// nearestRank is the sort-based nearest-rank percentile Reservoir used to
// compute: sort a copy, then index rank ceil(n*p/100), clamped to [1, n].
func nearestRank(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := min(max(int(float64(len(s))*p/100+0.9999), 1), len(s))
	return s[rank-1]
}

// TestReservoirPercentileMatchesSort checks the selection-based
// Percentile against sorting, on samples with many ties, with distinct
// values, on ordered inputs that defeat a median-of-three pivot, and at
// n = 1, for the percentiles the engine and the tests ask for.
func TestReservoirPercentileMatchesSort(t *testing.T) {
	ps := []float64{0, 0.1, 50, 99, 99.9, 100}
	rng := rand.New(rand.NewSource(11))
	organPipe := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(min(i, n-1-i))
		}
		return xs
	}
	ascending := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		return xs
	}
	cases := map[string][]float64{
		"n=1":         {42},
		"all-equal":   {3, 3, 3, 3, 3, 3, 3},
		"organ-pipe":  organPipe(4096),
		"ascending":   ascending(1000),
		"two-values":  nil,
		"many-ties":   nil,
		"distinct":    nil,
		"small-ties":  nil,
		"capacity-32": nil,
	}
	for i := 0; i < 5000; i++ {
		cases["two-values"] = append(cases["two-values"], float64(rng.Intn(2)))
		cases["many-ties"] = append(cases["many-ties"], float64(rng.Intn(40)*10))
		cases["distinct"] = append(cases["distinct"], rng.NormFloat64())
	}
	for i := 0; i < 9; i++ {
		cases["small-ties"] = append(cases["small-ties"], float64(rng.Intn(3)))
	}
	for i := 0; i < 1<<15; i++ {
		cases["capacity-32"] = append(cases["capacity-32"], float64(100+rng.Intn(900)))
	}
	for name, xs := range cases {
		for _, p := range ps {
			r := NewReservoir(len(xs), 1)
			for _, x := range xs {
				r.Add(x)
			}
			if got, want := r.Percentile(p), nearestRank(xs, p); got != want {
				t.Errorf("%s: Percentile(%v) = %v, sort gives %v", name, p, got, want)
			}
		}
		// The engine asks for p50 then p99 on the same sample, so the
		// second query runs on the order the first one left.
		r := NewReservoir(len(xs), 1)
		for _, x := range xs {
			r.Add(x)
		}
		for _, p := range ps {
			if got, want := r.Percentile(p), nearestRank(xs, p); got != want {
				t.Errorf("%s, queried in turn: Percentile(%v) = %v, sort gives %v", name, p, got, want)
			}
		}
	}
}

// BenchmarkReservoirPercentile times what the engine asks at each span's
// end: p50 then p99 of a full 32768-sample reservoir of repeating
// latencies, refilled in arrival order before every query pair.
func BenchmarkReservoirPercentile(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1<<15)
	for i := range xs {
		xs[i] = float64(60 + rng.Intn(400))
	}
	r := NewReservoir(len(xs), 1)
	for _, x := range xs {
		r.Add(x)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		copy(r.xs, xs)
		benchSink = r.Percentile(50) + r.Percentile(99)
	}
}

var benchSink float64
