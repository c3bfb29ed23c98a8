package cache

import (
	"math/rand"
	"testing"

	"m5/internal/mem"
)

// Access runs once per simulated memory reference — the single hottest
// function in the simulator — so it must not allocate even on the LLC
// miss path, where Result.Writeback aliases a per-Hierarchy scratch
// buffer instead of a fresh slice.

func TestAccessZeroAllocs(t *testing.T) {
	t.Run("demand", func(t *testing.T) {
		h := NewHierarchy(HierarchyConfig{
			L1:          Config{SizeBytes: 1 << 10, Ways: 2},
			L2:          Config{SizeBytes: 4 << 10, Ways: 4},
			LLCWayBytes: 4 << 10,
			LLCWays:     4,
		})
		rng := rand.New(rand.NewSource(1))
		addrs := make([]mem.PhysAddr, 4096)
		for i := range addrs {
			// Far larger than the LLC: most accesses miss and evict.
			addrs[i] = mem.PhysAddr(rng.Intn(1<<22)) &^ (mem.WordSize - 1)
		}
		for i, a := range addrs {
			h.Access(a, i%4 == 0)
		}
		i := 0
		allocs := testing.AllocsPerRun(10_000, func() {
			h.Access(addrs[i%len(addrs)], i%4 == 0)
			i++
		})
		if allocs != 0 {
			t.Errorf("Hierarchy.Access allocates %.1f allocs/op", allocs)
		}
	})
}

func BenchmarkHierarchyAccess(b *testing.B) {
	h := NewHierarchy(HierarchyConfig{})
	rng := rand.New(rand.NewSource(1))
	addrs := make([]mem.PhysAddr, 1<<16)
	for i := range addrs {
		addrs[i] = mem.PhysAddr(rng.Intn(1<<28)) &^ (mem.WordSize - 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(addrs[i%len(addrs)], i%4 == 0)
	}
}
