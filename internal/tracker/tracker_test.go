package tracker

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"m5/internal/mem"
	"m5/internal/sketch"
	"m5/internal/trace"
)

func TestGranularityKey(t *testing.T) {
	a := mem.PhysAddr(0x12345)
	if PageGranularity.Key(a) != uint64(a.Page()) {
		t.Error("page key mismatch")
	}
	if WordGranularity.Key(a) != uint64(a.Word()) {
		t.Error("word key mismatch")
	}
	if PageGranularity.String() != "page" || WordGranularity.String() != "word" {
		t.Error("granularity names")
	}
	if Granularity(99).String() == "" {
		t.Error("unknown granularity should still render")
	}
}

func TestAlgorithmString(t *testing.T) {
	names := map[Algorithm]string{
		CMSketch:             "cm-sketch",
		SpaceSaving:          "space-saving",
		StickySampling:       "sticky-sampling",
		ConservativeCMSketch: "cm-sketch-cu",
	}
	for a, want := range names {
		if a.String() != want {
			t.Errorf("%d.String() = %q, want %q", a, a.String(), want)
		}
	}
	if Algorithm(42).String() == "" {
		t.Error("unknown algorithm should still render")
	}
}

func TestConfigDefaults(t *testing.T) {
	tr := New(Config{})
	cfg := tr.Config()
	if cfg.K != 5 || cfg.Entries != 32*1024 {
		t.Errorf("defaults = %+v", cfg)
	}
	if cm, ok := tr.counter.(*sketch.CountMin); !ok || cm.Entries() != cfg.Entries {
		t.Errorf("counter = %T with %d entries, want a CM-Sketch with %d", tr.counter, tr.counter.Entries(), cfg.Entries)
	}
}

func TestConfigValidate(t *testing.T) {
	for _, cfg := range []Config{
		{},
		{Algorithm: SpaceSaving, K: 5, Entries: 50},
		{Algorithm: StickySampling, Entries: 64},
	} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", cfg, err)
		}
	}
	for _, cfg := range []Config{
		{Algorithm: SpaceSaving, K: -3},
		{Algorithm: CMSketch, K: -1},
		{Entries: -8},
	} {
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want an error", cfg)
		}
	}
}

func TestNewPanicsOnUnknownAlgorithm(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(Config{Algorithm: Algorithm(77)})
}

// One ObserveKeyN(key, n) call must leave a tracker where n calls at
// weight 1 would: through one AddN on CM-Sketch and Space-Saving,
// occurrence by occurrence for Sticky Sampling. A small table over a
// larger key space keeps CAM admissions, Space-Saving evictions and
// sketch collisions frequent.
func TestObserveKeyNMatchesRepeatedObserveKey(t *testing.T) {
	for _, alg := range []Algorithm{CMSketch, ConservativeCMSketch, SpaceSaving, StickySampling} {
		cfg := Config{Algorithm: alg, Entries: 16, K: 3}
		weighted, unit := New(cfg), New(cfg)
		rng := rand.New(rand.NewSource(1))
		for step := 0; step < 3000; step++ {
			key, n := uint64(rng.Intn(40)), uint64(rng.Intn(4))
			weighted.ObserveKeyN(key, n)
			for i := uint64(0); i < n; i++ {
				unit.ObserveKeyN(key, 1)
			}
			got, want := weighted.Peek(), unit.Peek()
			if step%250 == 249 {
				got, want = weighted.Query(), unit.Query()
			}
			if !slices.Equal(got, want) || weighted.Observed() != unit.Observed() {
				t.Fatalf("%v step %d: ObserveKeyN top %v (observed %d), n unit calls %v (observed %d)",
					alg, step, got, weighted.Observed(), want, unit.Observed())
			}
		}
	}
}

// feedZipf streams a zipf-distributed page workload into the tracker and
// returns exact counts per key.
func feedZipf(t *Tracker, n int, seed int64, gran Granularity) map[uint64]uint64 {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, 1.3, 8, 1<<14)
	truth := map[uint64]uint64{}
	for i := 0; i < n; i++ {
		page := z.Uint64()
		addr := mem.PFN(page).Addr() + mem.PhysAddr(rng.Intn(mem.WordsPerPage))*mem.WordSize
		t.ObserveN(trace.Access{Time: uint64(i), Addr: addr}, 1)
		truth[gran.Key(addr)]++
	}
	return truth
}

// topKOf returns the exact top-k keys by count.
func topKOf(truth map[uint64]uint64, k int) []uint64 {
	type kv struct{ k, v uint64 }
	all := make([]kv, 0, len(truth))
	for key, v := range truth {
		all = append(all, kv{key, v})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].v != all[j].v {
			return all[i].v > all[j].v
		}
		return all[i].k < all[j].k
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]uint64, k)
	for i := 0; i < k; i++ {
		out[i] = all[i].k
	}
	return out
}

// accessCountRatio computes the paper's metric: sum of true counts of
// reported keys over sum of true counts of the exact top-K keys.
func accessCountRatio(reported []uint64, truth map[uint64]uint64, k int) float64 {
	var got, best uint64
	for _, key := range reported {
		got += truth[key]
	}
	for _, key := range topKOf(truth, k) {
		best += truth[key]
	}
	if best == 0 {
		return 0
	}
	return float64(got) / float64(best)
}

func TestCMSketchHPTFindsHotPages(t *testing.T) {
	tr := NewHPT(CMSketch, 32*1024)
	truth := feedZipf(tr, 300000, 1, PageGranularity)
	top := tr.Query()
	if len(top) != 5 {
		t.Fatalf("Query returned %d entries", len(top))
	}
	keys := make([]uint64, len(top))
	for i, e := range top {
		keys[i] = e.Addr
	}
	if r := accessCountRatio(keys, truth, 5); r < 0.9 {
		t.Errorf("CM-Sketch 32K access-count ratio %.3f < 0.9", r)
	}
}

func TestSpaceSavingHPTSmallN(t *testing.T) {
	tr := NewHPT(SpaceSaving, 50)
	truth := feedZipf(tr, 300000, 2, PageGranularity)
	top := tr.Query()
	keys := make([]uint64, len(top))
	for i, e := range top {
		keys[i] = e.Addr
	}
	// Space-Saving with N=50 should still find reasonably hot pages on a
	// strongly skewed stream.
	if r := accessCountRatio(keys, truth, 5); r < 0.3 {
		t.Errorf("Space-Saving 50 access-count ratio %.3f < 0.3", r)
	}
}

func TestCMSketchLargeNBeatsSmallN(t *testing.T) {
	// Figure 7's central result: preciseness strongly depends on N.
	small := NewHPT(CMSketch, 64)
	large := NewHPT(CMSketch, 32*1024)
	truthS := feedZipf(small, 200000, 3, PageGranularity)
	truthL := feedZipf(large, 200000, 3, PageGranularity)
	rs := ratioOf(small, truthS)
	rl := ratioOf(large, truthL)
	if rl < rs {
		t.Errorf("32K-entry ratio %.3f < 64-entry ratio %.3f", rl, rs)
	}
}

func ratioOf(tr *Tracker, truth map[uint64]uint64) float64 {
	top := tr.Peek()
	keys := make([]uint64, len(top))
	for i, e := range top {
		keys[i] = e.Addr
	}
	return accessCountRatio(keys, truth, tr.Config().K)
}

func TestHWTKeysOnWords(t *testing.T) {
	tr := NewHWT(CMSketch, 4096)
	// One very hot word inside one page.
	hot := mem.PFN(100).Word(7)
	for i := 0; i < 1000; i++ {
		tr.ObserveN(trace.Access{Addr: hot.Addr()}, 1)
	}
	// Background noise in other pages.
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 2000; i++ {
		tr.ObserveN(trace.Access{Addr: mem.PFN(rng.Intn(5000)).Addr()}, 1)
	}
	top := tr.Peek()
	if len(top) == 0 || top[0].Addr != uint64(hot) {
		t.Errorf("hottest word not ranked first: %+v", top)
	}
}

func TestQueryResetsEpoch(t *testing.T) {
	tr := NewHPT(CMSketch, 1024)
	tr.ObserveN(trace.Access{Addr: 0x1000}, 1)
	if tr.Observed() != 1 {
		t.Errorf("Observed = %d", tr.Observed())
	}
	first := tr.Query()
	if len(first) != 1 {
		t.Fatalf("first query: %d entries", len(first))
	}
	if tr.Observed() != 0 {
		t.Error("Query should reset the epoch access counter")
	}
	if tr.Queries() != 1 {
		t.Errorf("Queries = %d", tr.Queries())
	}
	if got := tr.Peek(); len(got) != 0 {
		t.Errorf("post-query Peek = %+v, want empty", got)
	}
}

func TestSpaceSavingQueryResets(t *testing.T) {
	tr := NewHPT(SpaceSaving, 50)
	tr.ObserveN(trace.Access{Addr: 0x1000}, 1)
	tr.ObserveN(trace.Access{Addr: 0x1000}, 1)
	top := tr.Query()
	if len(top) != 1 || top[0].Count != 2 {
		t.Fatalf("Query = %+v", top)
	}
	if len(tr.Peek()) != 0 {
		t.Error("Space-Saving tracker should also reset on query")
	}
}

func TestStickySamplingTracker(t *testing.T) {
	tr := New(Config{Algorithm: StickySampling, Entries: 256})
	for i := 0; i < 10000; i++ {
		tr.ObserveN(trace.Access{Addr: 0x2000}, 1)
	}
	top := tr.Peek()
	if len(top) == 0 || top[0].Addr != uint64(mem.PhysAddr(0x2000).Page()) {
		t.Errorf("sticky sampling missed the only hot page: %+v", top)
	}
}

func TestPeekDoesNotMutate(t *testing.T) {
	tr := NewHPT(CMSketch, 1024)
	for i := 0; i < 10; i++ {
		tr.ObserveN(trace.Access{Addr: 0x5000}, 1)
	}
	a := tr.Peek()
	b := tr.Peek()
	if len(a) != len(b) || a[0] != b[0] {
		t.Error("Peek should be idempotent")
	}
	if tr.Observed() != 10 {
		t.Error("Peek should not reset the epoch")
	}
}

func TestDecayOnQueryRetainsHotState(t *testing.T) {
	decay := New(Config{Algorithm: CMSketch, Entries: 4096, K: 4, DecayOnQuery: true})
	reset := New(Config{Algorithm: CMSketch, Entries: 4096, K: 4})
	hot := mem.PFN(42)
	for i := 0; i < 100; i++ {
		decay.ObserveN(trace.Access{Addr: hot.Addr()}, 1)
		reset.ObserveN(trace.Access{Addr: hot.Addr()}, 1)
	}
	decay.Query()
	reset.Query()
	// Post-query, the decaying tracker remembers the hot page at half
	// strength; the resetting one starts cold.
	dTop := decay.Peek()
	if len(dTop) != 1 || dTop[0].Addr != uint64(hot) || dTop[0].Count != 50 {
		t.Errorf("decay Peek = %+v, want page 42 at 50", dTop)
	}
	if len(reset.Peek()) != 0 {
		t.Error("reset tracker should be cold")
	}
	if decay.Observed() != 0 {
		t.Error("decay query should still reset the epoch access counter")
	}
	if decay.Queries() != 1 {
		t.Error("decay query should count")
	}
}

func TestDecayFallsBackToResetWithoutDecayer(t *testing.T) {
	// Space-Saving has no Decay; DecayOnQuery degrades to Reset.
	tr := New(Config{Algorithm: SpaceSaving, Entries: 16, DecayOnQuery: true})
	tr.ObserveN(trace.Access{Addr: 0x1000}, 1)
	tr.Query()
	if len(tr.Peek()) != 0 {
		t.Error("non-decayable tracker should reset on query")
	}
}

// TestCountsExactlyOnlyFreshTrackers pins who may skip an epoch: an
// unbuilt or fresh Space-Saving tracker up to N keys, and never a
// Space-Saving tracker that has observed keys in the epoch (until its
// query starts a fresh one), a DecayOnQuery tracker or another
// algorithm.
func TestCountsExactlyOnlyFreshTrackers(t *testing.T) {
	const keys = 2
	type build int
	const (
		unbuilt build = iota
		fresh
		observed // one key observed, then asked again after a query
	)
	for _, tc := range []struct {
		name  string
		cfg   Config
		build build
		want  bool
	}{
		{"space-saving/unbuilt", Config{Algorithm: SpaceSaving, Entries: 2}, unbuilt, true},
		{"space-saving/fresh", Config{Algorithm: SpaceSaving, Entries: 2}, fresh, true},
		{"space-saving/too-many-keys", Config{Algorithm: SpaceSaving, Entries: 1}, fresh, false},
		{"space-saving/observed", Config{Algorithm: SpaceSaving, Entries: 2}, observed, false},
		{"space-saving/decay", Config{Algorithm: SpaceSaving, Entries: 2, DecayOnQuery: true}, fresh, false},
		{"cm-sketch/unbuilt", Config{Algorithm: CMSketch, Entries: 4096}, unbuilt, false},
		{"cm-sketch/fresh", Config{Algorithm: CMSketch, Entries: 4096}, fresh, false},
		{"cm-sketch-cu/fresh", Config{Algorithm: ConservativeCMSketch, Entries: 4096}, fresh, false},
		{"cm-sketch/decay", Config{Algorithm: CMSketch, Entries: 4096, DecayOnQuery: true}, fresh, false},
		{"sticky-sampling/fresh", Config{Algorithm: StickySampling, Entries: 4096}, fresh, false},
	} {
		var tr *Tracker
		if tc.build != unbuilt {
			tr = New(tc.cfg)
		}
		if tc.build == observed {
			tr.ObserveKeyN(1, 1)
		}
		if got := tc.cfg.CountsExactly(tr, keys); got != tc.want {
			t.Errorf("%s: CountsExactly = %v, want %v", tc.name, got, tc.want)
		}
		if tc.build == observed {
			tr.Query()
			if !tc.cfg.CountsExactly(tr, keys) {
				t.Errorf("%s: CountsExactly after the query = false, want true", tc.name)
			}
		}
	}
}

// TestCountsExactlyImpliesExactTopK checks the predicate's promise on
// random epochs over small skewed key spaces with weights 1 to 3: when a
// fresh Space-Saving tracker qualifies, replaying the epoch into it and
// querying reports min(K, keys) keys, each at its exact count, summing
// to the epoch's top-K best.
func TestCountsExactlyImpliesExactTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	var verdicts [2]int
	for trial := 0; trial < 3000; trial++ {
		cfg := Config{
			Algorithm: SpaceSaving,
			Entries:   []int{4, 8, 16, 50, 64, 100, 512}[rng.Intn(7)],
			K:         []int{1, 5, 64}[rng.Intn(3)],
		}
		keySpace := 1 + rng.Intn(80)
		type obs struct{ key, n uint64 }
		stream := make([]obs, rng.Intn(200))
		exact := map[uint64]uint64{}
		for i := range stream {
			key := uint64(rng.Intn(1 + rng.Intn(keySpace)))
			stream[i] = obs{key, 1 + uint64(rng.Intn(3))}
			exact[key] += stream[i].n
		}
		var run []sketch.KeyCount
		for k, c := range exact {
			run = append(run, sketch.KeyCount{Key: k, Count: c})
		}
		sketch.SortKeyCounts(run)
		tr := New(cfg)
		if !cfg.CountsExactly(tr, len(run)) {
			verdicts[0]++
			continue
		}
		verdicts[1]++
		for _, o := range stream {
			tr.ObserveKeyN(o.key, o.n)
		}
		top := tr.Query()
		if len(top) != min(cfg.K, len(run)) {
			t.Fatalf("%+v: reported %d keys of %d", cfg, len(top), len(run))
		}
		var got, best uint64
		for i, e := range top {
			if e.Count != exact[e.Addr] {
				t.Fatalf("%+v: key %d reported at %d, exact %d", cfg, e.Addr, e.Count, exact[e.Addr])
			}
			got += e.Count
			best += run[i].Count
		}
		if got != best {
			t.Fatalf("%+v: reported keys sum to %d, best %d", cfg, got, best)
		}
	}
	if verdicts[0] < 300 || verdicts[1] < 300 {
		t.Fatalf("verdicts (replay, exact) = %v: the epochs test too little of one side", verdicts)
	}
}
