package workload

import (
	"slices"
	"strings"
	"testing"

	"m5/internal/mem"
)

func TestArrayAndLayout(t *testing.T) {
	var l Layout
	a := l.Place(10, 8)
	b := l.Place(3, 64)
	if a.At(0) != 0 || a.At(9) != 72 {
		t.Errorf("array a addressing: %d %d", a.At(0), a.At(9))
	}
	if b.Base%4096 != 0 {
		t.Errorf("second array should be page-aligned, base=%d", b.Base)
	}
	if a.Size() != 80 || b.Size() != 192 {
		t.Error("sizes")
	}
	if l.Footprint()%4096 != 0 {
		t.Error("footprint should be page-aligned")
	}
}

func TestArrayPanicsOutOfBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Array{Base: 0, Elem: 8, N: 4}.At(4)
}

func TestEngineProducesAndCloses(t *testing.T) {
	g := newBase("test", 4096, func(e *Emitter) {
		for i := uint64(0); ; i++ {
			e.Load(i % 4096)
			e.Store((i + 1) % 4096)
		}
	})
	defer g.Close()
	for i := 0; i < 10000; i++ {
		if _, ok := next(g); !ok {
			t.Fatal("generator ended early")
		}
	}
	g.Close()
	g.Close() // double close is safe
}

func TestEngineEndOp(t *testing.T) {
	g := newBase("test", 4096, func(e *Emitter) {
		for {
			e.Load(0)
			e.Load(64)
			e.EndOp()
		}
	})
	defer g.Close()
	ends := 0
	for i := 0; i < 1000; i++ {
		a, ok := next(g)
		if !ok {
			t.Fatal("ended early")
		}
		if a.OpEnd {
			ends++
		}
	}
	if ends < 450 || ends > 550 {
		t.Errorf("op ends = %d, want ~500", ends)
	}
}

func TestKroneckerGraph(t *testing.T) {
	g := NewKronecker(10, 8, 1)
	if g.N != 1024 {
		t.Errorf("N = %d", g.N)
	}
	if g.Edges() == 0 {
		t.Fatal("no edges")
	}
	if g.Offsets[g.N] != g.Edges() {
		t.Error("CSR offsets inconsistent")
	}
	// Kronecker graphs must be skewed: max degree >> average degree.
	var maxDeg uint64
	for v := uint64(0); v < g.N; v++ {
		if d := g.Degree(v); d > maxDeg {
			maxDeg = d
		}
	}
	avg := g.Edges() / g.N
	if maxDeg < 4*avg {
		t.Errorf("max degree %d not skewed vs avg %d", maxDeg, avg)
	}
	// Adjacency lists sorted.
	for v := uint64(0); v < g.N; v++ {
		for i := g.Offsets[v] + 1; i < g.Offsets[v+1]; i++ {
			if g.Neigh[i-1] > g.Neigh[i] {
				t.Fatalf("adjacency of %d not sorted", v)
			}
		}
	}
	// Weights positive.
	for _, w := range g.Weights {
		if w == 0 {
			t.Fatal("zero edge weight")
		}
	}
}

func TestUniformGraphLessSkewed(t *testing.T) {
	ug := NewUniform(1024, 8, 1)
	kg := NewKronecker(10, 8, 1)
	maxDeg := func(g *Graph) uint64 {
		var m uint64
		for v := uint64(0); v < g.N; v++ {
			if d := g.Degree(v); d > m {
				m = d
			}
		}
		return m
	}
	if maxDeg(ug) >= maxDeg(kg) {
		t.Errorf("uniform max degree %d should be below kronecker %d",
			maxDeg(ug), maxDeg(kg))
	}
}

func TestGraphDeterminism(t *testing.T) {
	a := NewKronecker(9, 8, 42)
	b := NewKronecker(9, 8, 42)
	if a.Edges() != b.Edges() {
		t.Fatal("same seed should give the same graph")
	}
	for i := range a.Neigh {
		if a.Neigh[i] != b.Neigh[i] {
			t.Fatal("neighbour arrays differ")
		}
	}
}

func TestCatalogAllBenchmarksProduce(t *testing.T) {
	for _, name := range Names() {
		g, err := New(name, ScaleTiny, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g.Name() == "" || g.Footprint() == 0 {
			t.Errorf("%s: bad metadata", name)
		}
		seen := map[uint64]bool{}
		for i := 0; i < 100000; i++ {
			a, ok := next(g)
			if !ok {
				t.Fatalf("%s ended after %d accesses", name, i)
			}
			if a.Offset >= g.Footprint() {
				t.Fatalf("%s: offset %d beyond footprint %d", name, a.Offset, g.Footprint())
			}
			seen[a.Offset/mem.PageSize] = true
		}
		if len(seen) < 3 {
			t.Errorf("%s touched only %d pages in 100k accesses", name, len(seen))
		}
		g.Close()
	}
}

func TestCatalogUnknownName(t *testing.T) {
	_, err := New("nope", ScaleTiny, 1)
	if err == nil {
		t.Fatal("unknown name should error")
	}
	// The error teaches the vocabulary: every registered name is listed.
	for _, name := range Registered() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not mention registered name %q", err, name)
		}
	}
}

// TestCatalogRegisteredCoversNames pins the whole catalog vocabulary, so
// a registration that never runs (moved out of init into a function
// nothing calls) fails here rather than at the first query for it.
func TestCatalogRegisteredCoversNames(t *testing.T) {
	reg := Registered()
	want := []string{
		"bc", "bfs", "c.-lib", "cachelib", "cactu", "cactuBSSN", "cc",
		"foto", "fotonik3d", "lib.", "liblinear", "mcd", "mcf",
		"memcached", "pr", "redis", "roms", "sssp", "tc",
		"ycsb-a", "ycsb-b", "ycsb-c", "ycsb-d", "ycsb-e", "ycsb-f",
	}
	if !slices.Equal(reg, want) {
		t.Errorf("Registered() = %v\nwant %v", reg, want)
	}
	have := map[string]bool{}
	for _, name := range reg {
		have[name] = true
	}
	for _, name := range Names() {
		if !have[name] {
			t.Errorf("figure name %q missing from registry", name)
		}
	}
}

func TestRegisterRejectsDuplicatesAndEmpty(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	nop := func(Scale, int64) (Generator, error) { return nil, nil }
	mustPanic("dup", func() { Register("pr", nop) })
	mustPanic("empty", func() { Register("", nop) })
	mustPanic("nil builder", func() { Register("fresh-name", nil) })
}

func TestCatalogExtraKVSVariants(t *testing.T) {
	for _, name := range []string{"mcd", "c.-lib", "memcached", "cachelib", "liblinear", "cactuBSSN", "fotonik3d"} {
		g, err := New(name, ScaleTiny, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, ok := next(g); !ok {
			t.Errorf("%s should produce", name)
		}
		g.Close()
	}
}

func TestScaleString(t *testing.T) {
	for s, want := range map[Scale]string{
		ScaleTiny: "tiny", ScaleSmall: "small", ScaleMedium: "medium", ScaleLarge: "large",
	} {
		if s.String() != want {
			t.Errorf("%d = %q", s, s.String())
		}
	}
	if Scale(9).String() == "" {
		t.Error("unknown scale should render")
	}
}

// wordsPerPage profiles n accesses and returns, per touched page, the
// count of unique words touched — the raw material of Figure 4.
func wordsPerPage(g Generator, n int) map[uint64]map[uint64]bool {
	pages := map[uint64]map[uint64]bool{}
	for i := 0; i < n; i++ {
		a, ok := next(g)
		if !ok {
			break
		}
		pg := a.Offset / mem.PageSize
		if pages[pg] == nil {
			pages[pg] = map[uint64]bool{}
		}
		pages[pg][a.Offset/mem.WordSize] = true
	}
	return pages
}

func sparseFraction(pages map[uint64]map[uint64]bool, threshold int) float64 {
	if len(pages) == 0 {
		return 0
	}
	sparse := 0
	for _, words := range pages {
		if len(words) <= threshold {
			sparse++
		}
	}
	return float64(sparse) / float64(len(pages))
}

func TestRedisSparsity(t *testing.T) {
	// Figure 4 / §4.1: ≥~80% of Redis pages see at most 16 of 64 words.
	g := NewYCSB(YCSBConfig{Name: "redis", Keys: 1 << 14, Seed: 1})
	defer g.Close()
	pages := wordsPerPage(g, 2_000_000)
	if frac := sparseFraction(pages, 16); frac < 0.75 {
		t.Errorf("redis sparse fraction (≤16 words) = %.2f, want ≥ 0.75", frac)
	}
}

func TestSPECDensity(t *testing.T) {
	// Figure 4: SPEC pages (except roms) are dense — most pages have ≥48
	// of 64 words accessed.
	for _, name := range []string{"cactu", "foto", "mcf"} {
		g := MustNew(name, ScaleTiny, 1)
		pages := wordsPerPage(g, 3_000_000)
		g.Close()
		dense := 0
		for _, words := range pages {
			if len(words) >= 48 {
				dense++
			}
		}
		frac := float64(dense) / float64(len(pages))
		if frac < 0.7 {
			t.Errorf("%s dense fraction = %.2f, want ≥ 0.7", name, frac)
		}
	}
}

func TestROMSSparserThanOtherSPEC(t *testing.T) {
	roms := MustNew("roms", ScaleTiny, 1)
	cactu := MustNew("cactu", ScaleTiny, 1)
	defer roms.Close()
	defer cactu.Close()
	rp := sparseFraction(wordsPerPage(roms, 2_000_000), 32)
	cp := sparseFraction(wordsPerPage(cactu, 2_000_000), 32)
	if rp <= cp {
		t.Errorf("roms sparse fraction %.3f should exceed cactu %.3f", rp, cp)
	}
}

func TestROMSSkew(t *testing.T) {
	// §7.2: roms' p99 page is ~17x hotter than its p50 page.
	g := MustNew("roms", ScaleTiny, 1)
	defer g.Close()
	counts := map[uint64]uint64{}
	for i := 0; i < 4_000_000; i++ {
		a, ok := next(g)
		if !ok {
			break
		}
		counts[a.Offset/mem.PageSize]++
	}
	var vals []uint64
	for _, c := range counts {
		vals = append(vals, c)
	}
	p50 := percentileU64(vals, 50)
	p99 := percentileU64(vals, 99)
	if p50 == 0 || float64(p99)/float64(p50) < 5 {
		t.Errorf("roms p99/p50 = %d/%d, want ratio ≥ 5", p99, p50)
	}
}

func TestPageRankFlatterThanLiblinear(t *testing.T) {
	// Figure 10: liblinear is among the most skewed, PR among the
	// flattest.
	skew := func(g Generator) float64 {
		defer g.Close()
		counts := map[uint64]uint64{}
		for i := 0; i < 2_000_000; i++ {
			a, ok := next(g)
			if !ok {
				break
			}
			counts[a.Offset/mem.PageSize]++
		}
		var vals []uint64
		for _, c := range counts {
			vals = append(vals, c)
		}
		p50 := percentileU64(vals, 50)
		if p50 == 0 {
			return 0
		}
		return float64(percentileU64(vals, 99)) / float64(p50)
	}
	lib := skew(MustNew("lib.", ScaleTiny, 1))
	pr := skew(MustNew("pr", ScaleTiny, 1))
	if lib <= pr {
		t.Errorf("liblinear skew %.1f should exceed pagerank %.1f", lib, pr)
	}
}

func percentileU64(vals []uint64, p int) uint64 {
	if len(vals) == 0 {
		return 0
	}
	// insertion-free selection: simple sort copy
	cp := make([]uint64, len(vals))
	copy(cp, vals)
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j-1] > cp[j]; j-- {
			cp[j-1], cp[j] = cp[j], cp[j-1]
		}
	}
	idx := (len(cp)*p + 99) / 100
	if idx >= len(cp) {
		idx = len(cp) - 1
	}
	return cp[idx]
}

func TestKVSOpsEndWithMarkers(t *testing.T) {
	g := NewYCSB(YCSBConfig{Name: "redis", Keys: 1 << 10, Seed: 1})
	defer g.Close()
	sawEnd := false
	for i := 0; i < 100; i++ {
		a, ok := next(g)
		if !ok {
			t.Fatal("ended")
		}
		if a.OpEnd {
			sawEnd = true
		}
	}
	if !sawEnd {
		t.Error("KVS stream should carry OpEnd markers")
	}
}

func TestBatchWorkloadsHaveNoOpMarkers(t *testing.T) {
	g := MustNew("pr", ScaleTiny, 1)
	defer g.Close()
	for i := 0; i < 10000; i++ {
		a, ok := next(g)
		if !ok {
			break
		}
		if a.OpEnd {
			t.Fatal("batch workload should not emit OpEnd")
		}
	}
}

func TestGapKernelsComputeOverWholeGraph(t *testing.T) {
	// Each kernel must reach most of its CSR within a bounded access
	// budget (they are real algorithms, not samplers).
	for _, name := range []string{"bfs", "pr", "cc", "sssp", "bc", "tc"} {
		g := MustNew(name, ScaleTiny, 3)
		seen := map[uint64]bool{}
		for i := 0; i < 3_000_000; i++ {
			a, ok := next(g)
			if !ok {
				break
			}
			seen[a.Offset/mem.PageSize] = true
		}
		g.Close()
		total := g.Footprint() / mem.PageSize
		if float64(len(seen)) < 0.5*float64(total) {
			t.Errorf("%s touched %d of %d pages", name, len(seen), total)
		}
	}
}

func TestYCSBKinds(t *testing.T) {
	// Write-fraction bands. A read touch is w+2 loads (bucket head,
	// header, w value words); an update or insert touch is 2 loads plus
	// w+1 stores (the value words and the header rewrite). Values span
	// w = 2..4 words and the zipfian requests weight the hot keys' w, so
	// each band spans its fraction from w = 2 to w = 4, widened for the
	// op coin over 50,000 accesses:
	//   A: half reads, half updates: (w+1)/(2w+5), 0.333 to 0.385.
	//   B, D: 5% updates (inserts for D): 0.05(w+1)/(w+2.05), 0.037 to
	//      0.041.
	//   E: 5% inserts, 95% scans of 8.5 keys on average:
	//      0.05(w+1)/(8.075(w+2)+0.05(w+3)), 0.0046 to 0.0051.
	//   F: every op reads and half then update: (w+1)/(3w+7), 0.231 to
	//      0.263.
	//   C: read-only, exactly 0.
	bands := map[YCSBKind][2]float64{
		YCSBA: {0.30, 0.42},
		YCSBB: {0.025, 0.055},
		YCSBC: {0, 0},
		YCSBD: {0.025, 0.055},
		YCSBE: {0.002, 0.009},
		YCSBF: {0.20, 0.29},
	}
	for _, kind := range []YCSBKind{YCSBA, YCSBB, YCSBC, YCSBD, YCSBE, YCSBF} {
		for seed := int64(1); seed <= 5; seed++ {
			g := NewYCSB(YCSBConfig{Kind: kind, Keys: 1 << 10, Seed: seed})
			reads, writes, ends := 0, 0, 0
			for i := 0; i < 50000; i++ {
				a, ok := next(g)
				if !ok {
					t.Fatalf("%v ended early", kind)
				}
				if a.Offset >= g.Footprint() {
					t.Fatalf("%v: offset out of range", kind)
				}
				if a.Write {
					writes++
				} else {
					reads++
				}
				if a.OpEnd {
					ends++
				}
			}
			g.Close()
			if ends == 0 {
				t.Errorf("%v seed %d: no op markers", kind, seed)
			}
			band := bands[kind]
			if frac := float64(writes) / float64(reads+writes); frac < band[0] || frac > band[1] {
				t.Errorf("%v seed %d: write fraction = %.4f, want within [%g, %g]", kind, seed, frac, band[0], band[1])
			}
		}
	}
}

func TestYCSBDLatestDistributionDrifts(t *testing.T) {
	// D's hot set follows inserts: late-phase accesses should center on
	// higher key offsets than early-phase ones.
	const keys = 1 << 12
	g := NewYCSB(YCSBConfig{Kind: YCSBD, Keys: keys, Seed: 2})
	defer g.Close()
	// The meta array is the second region (one 64B line per key, laid out
	// in key order), so its offsets reveal which keys are touched.
	metaBase := uint64(keys * 8) // buckets array, already page-aligned
	metaEnd := metaBase + keys*64
	meanKey := func(n int) float64 {
		sum, cnt := 0.0, 0
		for i := 0; i < n; i++ {
			a, ok := next(g)
			if !ok {
				t.Fatal("ended")
			}
			if a.Offset >= metaBase && a.Offset < metaEnd {
				sum += float64((a.Offset - metaBase) / 64)
				cnt++
			}
		}
		if cnt == 0 {
			t.Fatal("no meta accesses sampled")
		}
		return sum / float64(cnt)
	}
	early := meanKey(50_000)
	for i := 0; i < 400_000; i++ {
		next(g)
	}
	late := meanKey(50_000)
	if late <= early {
		t.Errorf("latest distribution should drift upward: early key %.0f, late key %.0f", early, late)
	}
}

func TestYCSBEScans(t *testing.T) {
	// E's scans read consecutive slab slots... at minimum it must produce
	// sequential multi-key ops (ops longer than a point read).
	g := NewYCSB(YCSBConfig{Kind: YCSBE, Keys: 1 << 10, Seed: 3})
	defer g.Close()
	opLens := map[int]int{}
	cur := 0
	for i := 0; i < 50_000; i++ {
		a, ok := next(g)
		if !ok {
			t.Fatal("ended")
		}
		cur++
		if a.OpEnd {
			opLens[cur]++
			cur = 0
		}
	}
	long := 0
	for l, n := range opLens {
		if l > 8 { // more accesses than one point op
			long += n
		}
	}
	if long == 0 {
		t.Error("ycsb-e should produce multi-key scan operations")
	}
}

func TestParseScale(t *testing.T) {
	for s := ScaleTiny; s <= ScaleLarge; s++ {
		got, err := ParseScale(s.String())
		if err != nil || got != s {
			t.Errorf("ParseScale(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := ParseScale("giant"); err == nil {
		t.Error("unknown scale should error")
	}
}

// TestRedisIsYCSBA pins the one slab KVS: the catalog's redis is YCSB-A
// over the same value sizes, so the two names emit one stream.
func TestRedisIsYCSBA(t *testing.T) {
	redis := MustNew("redis", ScaleTiny, 1)
	defer redis.Close()
	ycsb := MustNew("ycsb-a", ScaleTiny, 1)
	defer ycsb.Close()
	want := make([]Access, 4096)
	got := make([]Access, 4096)
	for n := 0; n < 1_000_000; n += len(want) {
		nw, ng := NextBatch(redis, want), NextBatch(ycsb, got)
		if nw != len(want) || ng != nw {
			t.Fatalf("short batches at %d: redis %d, ycsb-a %d", n, nw, ng)
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("access %d: redis %+v, ycsb-a %+v", n+i, want[i], got[i])
			}
		}
	}
}

func TestYCSBCatalogNames(t *testing.T) {
	for _, name := range []string{"ycsb-a", "ycsb-c", "ycsb-f"} {
		g, err := New(name, ScaleTiny, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := next(g); !ok {
			t.Errorf("%s should produce", name)
		}
		if g.Name() != name {
			t.Errorf("Name = %q, want %q", g.Name(), name)
		}
		g.Close()
	}
}
