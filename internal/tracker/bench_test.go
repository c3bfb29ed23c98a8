package tracker

import (
	"math/rand"
	"testing"

	"m5/internal/mem"
)

// zipfAddrs returns n addresses whose pages follow a Zipf law over 64K
// pages, each at a random word of its page.
func zipfAddrs(n int, seed int64) []mem.PhysAddr {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, 1.2, 4, 1<<16-1)
	addrs := make([]mem.PhysAddr, n)
	for i := range addrs {
		addrs[i] = mem.PFN(z.Uint64()).Addr() + mem.PhysAddr(rng.Intn(mem.WordsPerPage))*mem.WordSize
	}
	return addrs
}

// keysOf maps addresses to the tracker's keys.
func keysOf(addrs []mem.PhysAddr, g Granularity) []uint64 {
	keys := make([]uint64, len(addrs))
	for i, a := range addrs {
		keys[i] = g.Key(a)
	}
	return keys
}

// observeOutcomes replays keys into tr and counts the observations that
// hit a resident key, admitted a new one and were turned away. A
// Space-Saving tracker admits every key, so its count of admissions is
// its evictions.
func observeOutcomes(tr *Tracker, keys []uint64) (hits, admits, rejects int) {
	resident := func(k uint64) bool {
		if tr.topk != nil {
			return tr.topk.Contains(k)
		}
		return tr.ss.Estimate(k) > 0
	}
	for _, k := range keys {
		before := resident(k)
		if tr.ss != nil && !before && tr.ss.Tracked() < tr.ss.Entries() {
			before = true // filling a free entry is not an eviction
		}
		tr.ObserveKeyN(k, 1)
		switch after := resident(k); {
		case before:
			hits++
		case after:
			admits++
		default:
			rejects++
		}
	}
	return hits, admits, rejects
}

// TestObserveKeyNZeroAllocs gates the tracker path every DRAM access takes
// on a tracked machine. Each run replays a whole prepared Zipf stream and
// then serves one Query, so every run starts an epoch: the CAM fills,
// then admits and turns away keys at capacity, and an allocation on a
// branch only some observations take (an admission, a rescan of the
// minimum, an index delete) is counted. Query's report is the one
// allocation a run may make. The cases cover CM-Sketch trackers, plain
// and conservative, at Figure 7's K=5, the deployed HPT's K=64 and the
// deployed HWT's K=128, and a Space-Saving tracker.
func TestObserveKeyNZeroAllocs(t *testing.T) {
	keys := keysOf(zipfAddrs(20000, 1), PageGranularity)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"cm/K5", Config{Algorithm: CMSketch, Entries: 2048, K: 5}},
		{"cm/K64", Config{Algorithm: CMSketch, K: 64}},
		{"cm/K128", Config{Algorithm: CMSketch, K: 128}},
		{"cm-cu/K5", Config{Algorithm: ConservativeCMSketch, Entries: 2048, K: 5}},
		{"cm-cu/K64", Config{Algorithm: ConservativeCMSketch, K: 64}},
		{"cm-cu/K128", Config{Algorithm: ConservativeCMSketch, K: 128}},
		{"space-saving", Config{Algorithm: SpaceSaving, Entries: 2048, K: 5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := New(tc.cfg)
			hits, admits, rejects := observeOutcomes(tr, keys)
			if hits == 0 || admits == 0 || (tr.topk != nil && rejects == 0) {
				t.Fatalf("stream took %d hits, %d admissions, %d rejections; the gate must measure all three",
					hits, admits, rejects)
			}
			report := testing.AllocsPerRun(1, func() { tr.Peek() })
			tr.Query()
			allocs := testing.AllocsPerRun(10, func() {
				for _, k := range keys {
					tr.ObserveKeyN(k, 1)
				}
				tr.Query()
			})
			if allocs > report {
				t.Errorf("a %d-key epoch allocates %.0f times, want only Query's %.0f", len(keys), allocs, report)
			}
		})
	}
}

// BenchmarkObserveKeyN times one observation of the deployed HPT
// (CM-Sketch 32K, K=64, on pages) and HWT (CM-Sketch 32K, K=128, on
// words), as policy.DefaultHPT and DefaultHWT configure them, over a
// Zipf page stream. Neither is ever queried, as on a warm machine no
// policy reads, so each CAM stays full and most cold keys miss it.
func BenchmarkObserveKeyN(b *testing.B) {
	addrs := zipfAddrs(1<<16, 1)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"hpt", Config{Granularity: PageGranularity, Algorithm: CMSketch, Entries: 32 * 1024, K: 64}},
		{"hwt", Config{Granularity: WordGranularity, Algorithm: CMSketch, Entries: 32 * 1024, K: 128}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			tr, keys := New(tc.cfg), keysOf(addrs, tc.cfg.Granularity)
			for _, k := range keys {
				tr.ObserveKeyN(k, 1)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.ObserveKeyN(keys[i&(len(keys)-1)], 1)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/obs")
		})
	}
}
