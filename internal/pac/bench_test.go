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
		stream := make([]trace.Access, 4096)
		for i := range stream {
			stream[i].Addr = mem.PFN(first + uint64(i*7)%pages).Addr()
		}
		// Each run observes the whole stream, so an allocation on a path
		// only some accesses take still counts.
		allocs := testing.AllocsPerRun(10, func() {
			for _, a := range stream {
				c.ObserveN(a, 1)
			}
		})
		if allocs != 0 {
			t.Errorf("Counter.ObserveN allocates %.0f times per %d-access stream", allocs, len(stream))
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
