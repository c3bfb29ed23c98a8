package pac

import (
	"testing"

	"m5/internal/mem"
	"m5/internal/trace"
)

// ObserveN is called once per CXL access in the simulator, so it must
// stay allocation-free at steady state.

func TestObserveZeroAllocs(t *testing.T) {
	const pages = 1024
	region := testRegion(pages)
	first := uint64(region.Start.Page())

	t.Run("Counter", func(t *testing.T) {
		c := New(Config{Granularity: PageCounter, Region: region})
		i := uint64(0)
		allocs := testing.AllocsPerRun(10_000, func() {
			c.ObserveN(trace.Access{Addr: mem.PFN(first + i%pages).Addr()}, 1)
			i += 7
		})
		if allocs != 0 {
			t.Errorf("Counter.ObserveN allocates %.1f allocs/op", allocs)
		}
	})
}

func BenchmarkCounterObserve(b *testing.B) {
	const pages = 1024
	region := testRegion(pages)
	first := uint64(region.Start.Page())
	c := New(Config{Granularity: PageCounter, Region: region})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ObserveN(trace.Access{Addr: mem.PFN(first + uint64(i)%pages).Addr()}, 1)
	}
}
