package cache

import (
	"math/rand"
	"testing"

	"m5/internal/mem"
)

// Access runs once per simulated memory reference — the single hottest
// function in the simulator — so it must not allocate on any path: an L1
// hit, an L2 hit, an LLC hit, or an LLC miss that evicts, where
// Result.Writeback aliases a per-Hierarchy scratch buffer instead of a
// fresh slice.

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
			// A hot set that fits in L2 beside a range far larger than the
			// LLC: every hit level occurs, and most misses evict dirty lines.
			if i%2 == 0 {
				addrs[i] = mem.PhysAddr(rng.Intn(48)) << mem.WordShift
			} else {
				addrs[i] = mem.PhysAddr(rng.Intn(1<<22)) &^ (mem.WordSize - 1)
			}
		}
		for i, a := range addrs {
			h.Access(a, i%4 == 0)
		}
		// Each run replays the whole stream, so an allocation on a path
		// only some accesses take still counts once per access taking it.
		var seen [HitMemory + 1]int
		writes := h.DRAMWrites()
		allocs := testing.AllocsPerRun(10, func() {
			for i, a := range addrs {
				seen[h.Access(a, i%4 == 0).Level]++
			}
		})
		if allocs != 0 {
			t.Errorf("Hierarchy.Access allocates %.0f times per %d-access stream", allocs, len(addrs))
		}
		for lv := HitL1; lv <= HitMemory; lv++ {
			if seen[lv] == 0 {
				t.Errorf("the gate's stream never hit %v", lv)
			}
		}
		if h.DRAMWrites() == writes {
			t.Error("the gate's stream never evicted a dirty line")
		}
	})
}

// BenchmarkHierarchyAccess reports ns per access on two geometries: the
// platform defaults (48 KiB/12-way, 2 MiB/16-way, 40 MiB/10-way) under
// uniform addresses over 256 MiB, and the tiny scaled geometry every
// runner builds at -scale tiny (8 KiB/2-way, 8 KiB/4-way, 64 KiB/8-way)
// under a Zipf-skewed stream over 16 MiB, whose L1 hit ratio (about
// 60%) and LLC miss ratio (about 30%) sit near Figure 9's. Each case
// cycles a pool of pre-drawn addresses; the uniform pool spans over four
// times the 40 MiB LLC's lines, so it times misses, not LLC hits.
func BenchmarkHierarchyAccess(b *testing.B) {
	zipf := rand.NewZipf(rand.New(rand.NewSource(1)), 1.15, 1, 1<<18-1)
	for _, bc := range []struct {
		name string
		cfg  HierarchyConfig
		pool int
		addr func(*rand.Rand) mem.PhysAddr
	}{
		{"platform-uniform", HierarchyConfig{}, 1 << 22, func(rng *rand.Rand) mem.PhysAddr {
			return mem.PhysAddr(rng.Intn(1<<28)) &^ (mem.WordSize - 1)
		}},
		{"tiny-skewed", HierarchyConfig{
			L1: Config{SizeBytes: 8 << 10, Ways: 2}, L2: Config{SizeBytes: 8 << 10, Ways: 4},
			LLCWayBytes: 8 << 10, LLCWays: 8,
		}, 1 << 16, func(*rand.Rand) mem.PhysAddr {
			return mem.PhysAddr(zipf.Uint64()) << mem.WordShift
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			h := NewHierarchy(bc.cfg)
			rng := rand.New(rand.NewSource(1))
			addrs := make([]mem.PhysAddr, bc.pool)
			for i := range addrs {
				addrs[i] = bc.addr(rng)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.Access(addrs[i%len(addrs)], i%4 == 0)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/access")
			b.ReportMetric(float64(h.L1().Hits())/float64(h.Accesses()), "l1-hit-ratio")
			b.ReportMetric(float64(h.DRAMReads())/float64(h.Accesses()), "llc-miss-ratio")
		})
	}
}
