package sketch

import "testing"

// The AddN hot paths must be allocation-free at steady state: the
// simulator calls them once per DRAM access, so a single alloc/op shows
// up directly in harness wall time.

// TestAddPathsZeroAllocs gates the unit weight the exact engine passes.
func TestAddPathsZeroAllocs(t *testing.T) { testAddNZeroAllocs(t, 1) }

// TestAddNPathsZeroAllocs gates a weight above 1, as the sampled tier
// passes with a batch's Horvitz-Thompson credit.
func TestAddNPathsZeroAllocs(t *testing.T) { testAddNZeroAllocs(t, 7) }

func testAddNZeroAllocs(t *testing.T, n uint64) {
	keys := benchKeys(4096)
	counters := []struct {
		name string
		c    Counter
	}{
		{"Exact", NewExact()},
		{"CountMin", NewCountMin(1024)},
		{"CountMinConservative", NewCountMin(1024, WithConservativeUpdate())},
		{"SpaceSaving", NewSpaceSaving(256)},
		{"StickySampling", NewStickySampling(256, 1)},
	}
	for _, tc := range counters {
		t.Run(tc.name, func(t *testing.T) {
			// Warm up: reach steady-state cardinality (tables grown,
			// eviction/rescale churn in effect) before measuring.
			for i := 0; i < 4; i++ {
				for _, k := range keys {
					tc.c.AddN(k, 3)
				}
			}
			// Each run adds the whole key stream, so an allocation on a
			// path only some adds take (an eviction, a rescale) still
			// counts.
			allocs := testing.AllocsPerRun(10, func() {
				for _, k := range keys {
					tc.c.AddN(k, n)
				}
			})
			if allocs != 0 {
				t.Errorf("%s.AddN(key, %d) allocates %.0f times per %d-key stream at steady state", tc.name, n, allocs, len(keys))
			}
		})
	}
}

func benchKeys(n int) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		// Zipf-ish mix: low keys recur often, high keys churn.
		keys[i] = splitmix64(uint64(i)) % uint64(n*4)
	}
	return keys
}

func benchmarkAdd(b *testing.B, c Counter) {
	keys := benchKeys(4096)
	for i := 0; i < 2; i++ {
		for _, k := range keys {
			c.AddN(k, 1)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.AddN(keys[i%len(keys)], 1)
	}
}

func BenchmarkExactAdd(b *testing.B)    { benchmarkAdd(b, NewExact()) }
func BenchmarkCountMinAdd(b *testing.B) { benchmarkAdd(b, NewCountMin(1024)) }
func BenchmarkCountMinConservativeAdd(b *testing.B) {
	benchmarkAdd(b, NewCountMin(1024, WithConservativeUpdate()))
}
func BenchmarkSpaceSavingAdd(b *testing.B)    { benchmarkAdd(b, NewSpaceSaving(256)) }
func BenchmarkStickySamplingAdd(b *testing.B) { benchmarkAdd(b, NewStickySampling(256, 1)) }

func BenchmarkCountTableInc(b *testing.B) {
	t := NewCountTable(4096)
	keys := benchKeys(4096)
	for _, k := range keys {
		t.Inc(k, 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Inc(keys[i%len(keys)], 1)
	}
}
