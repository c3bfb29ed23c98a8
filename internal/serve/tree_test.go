package serve

import (
	"reflect"
	"sync"
	"testing"

	"m5/internal/experiments"
	"m5/internal/sim"
	"m5/internal/workload"
)

func treeParams(warmup int) experiments.Params {
	return experiments.Params{
		Scale:    workload.ScaleTiny,
		Warmup:   warmup,
		Accesses: 30_000,
		Seed:     1,
	}
}

// buildBare returns a build func for a bare tiny runner — the shape the
// tree warms and checkpoints.
func buildBare(t *testing.T, bench string, p experiments.Params) func() (*sim.Runner, error) {
	t.Helper()
	return func() (*sim.Runner, error) {
		wl, err := workload.New(bench, p.Scale, p.Seed)
		if err != nil {
			return nil, err
		}
		r, err := sim.NewRunner(sim.Config{Workload: wl})
		if err != nil {
			wl.Close()
			return nil, err
		}
		return r, nil
	}
}

// runFrom forks a checkpoint and measures n accesses.
func runFrom(t *testing.T, cp *sim.Checkpoint, n int) sim.Result {
	t.Helper()
	r, err := cp.Fork()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	return r.Run(n)
}

// TestTreeHitReturnsSameCheckpoint pins the exact-hit path: the second
// request for the same key reuses the cached checkpoint without calling
// build, and the stats record a hit.
func TestTreeHitReturnsSameCheckpoint(t *testing.T) {
	tree := NewTree(8)
	p := treeParams(5_000)
	key := experiments.WarmKey{Bench: "lib.", Kind: "bare"}
	cp1, err := tree.WarmCheckpoint(p, key, buildBare(t, "lib.", p))
	if err != nil {
		t.Fatal(err)
	}
	cp2, err := tree.WarmCheckpoint(p, key, func() (*sim.Runner, error) {
		t.Fatal("build called on exact hit")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if cp1 != cp2 {
		t.Fatal("exact hit returned a different checkpoint")
	}
	st := tree.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Extends != 0 || st.Nodes != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 0 extends / 1 node", st)
	}
}

// TestTreeKeySeparatesWarmState pins every Params field that shapes a
// warmed machine into the checkpoint key: two requests whose Params
// differ only in that field must each build their own warmup, and the
// tree must record no hit. A key that dropped one would hand a query a
// checkpoint warmed for another scale, seed or sampling geometry.
func TestTreeKeySeparatesWarmState(t *testing.T) {
	exact := treeParams(2_000)
	sampled := exact
	sampled.Sample, sampled.SampleWindow, sampled.SampleStride, sampled.TargetCI = true, 1_000, 4, 0.05
	for _, tc := range []struct {
		name   string
		base   experiments.Params
		differ func(*experiments.Params)
	}{
		{"Scale", exact, func(p *experiments.Params) { p.Scale = workload.ScaleSmall }},
		{"Seed", exact, func(p *experiments.Params) { p.Seed = 2 }},
		{"Sample", exact, func(p *experiments.Params) { p.Sample = true }},
		{"SampleWindow", sampled, func(p *experiments.Params) { p.SampleWindow = 2_000 }},
		{"SampleStride", sampled, func(p *experiments.Params) { p.SampleStride = 8 }},
		{"TargetCI", sampled, func(p *experiments.Params) { p.TargetCI = 0.1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			other := tc.base
			tc.differ(&other)
			tree := NewTree(8)
			key := experiments.WarmKey{Bench: "lib.", Kind: "bare"}
			builds := 0
			for _, p := range []experiments.Params{tc.base, other} {
				build := buildBare(t, "lib.", p)
				counted := func() (*sim.Runner, error) { builds++; return build() }
				if _, err := tree.WarmCheckpoint(p, key, counted); err != nil {
					t.Fatal(err)
				}
			}
			if st := tree.Stats(); builds != 2 || st.Hits != 0 {
				t.Fatalf("builds = %d, stats = %+v: want 2 builds and no hit", builds, st)
			}
		})
	}
}

// TestTreePrefixExtendByteIdentity is the core serving guarantee: a
// checkpoint produced by forking a shorter-prefix ancestor and running
// the warmup delta is byte-identical to one warmed cold in a single run
// — measured spans from both produce identical results.
func TestTreePrefixExtendByteIdentity(t *testing.T) {
	const bench = "redis" // exercises op latencies too
	short, long := treeParams(4_000), treeParams(8_000)
	key := experiments.WarmKey{Bench: bench, Kind: "bare"}

	// Cold reference: one fresh runner warmed the full prefix.
	coldTree := NewTree(8)
	coldCp, err := coldTree.WarmCheckpoint(long, key, buildBare(t, bench, long))
	if err != nil {
		t.Fatal(err)
	}
	want := runFrom(t, coldCp, long.Accesses)

	// Extended: warm the short prefix, then ask for the long one — the
	// tree must fork the ancestor and run only the delta.
	tree := NewTree(8)
	if _, err := tree.WarmCheckpoint(short, key, buildBare(t, bench, short)); err != nil {
		t.Fatal(err)
	}
	extCp, err := tree.WarmCheckpoint(long, key, func() (*sim.Runner, error) {
		t.Fatal("full build called despite available ancestor")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got := runFrom(t, extCp, long.Accesses)

	if !reflect.DeepEqual(got, want) {
		t.Fatalf("prefix-extended fork diverged from cold warmup:\ngot  %+v\nwant %+v", got, want)
	}
	st := tree.Stats()
	if st.Extends != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 extend / 1 miss", st)
	}
}

// TestTreeSingleFlight hammers one key from many goroutines: exactly one
// build may run, everyone gets the same checkpoint.
func TestTreeSingleFlight(t *testing.T) {
	tree := NewTree(8)
	p := treeParams(3_000)
	key := experiments.WarmKey{Bench: "lib.", Kind: "bare"}
	var builds sync.Map
	var wg sync.WaitGroup
	cps := make([]*sim.Checkpoint, 8)
	for i := range cps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cp, err := tree.WarmCheckpoint(p, key, func() (*sim.Runner, error) {
				builds.Store(i, true)
				return buildBare(t, "lib.", p)()
			})
			if err != nil {
				t.Error(err)
				return
			}
			cps[i] = cp
		}(i)
	}
	wg.Wait()
	buildCount := 0
	builds.Range(func(_, _ any) bool { buildCount++; return true })
	if buildCount != 1 {
		t.Fatalf("%d builds ran for one key, want 1", buildCount)
	}
	for i := 1; i < len(cps); i++ {
		if cps[i] != cps[0] {
			t.Fatalf("goroutine %d got a different checkpoint", i)
		}
	}
}

// TestTreeEviction bounds the tree: beyond maxNodes the least-recently-
// used ready checkpoint is dropped, and a re-request rebuilds it.
func TestTreeEviction(t *testing.T) {
	tree := NewTree(1)
	key := experiments.WarmKey{Bench: "lib.", Kind: "bare"}
	p1, p2 := treeParams(2_000), treeParams(3_000)
	if _, err := tree.WarmCheckpoint(p1, key, buildBare(t, "lib.", p1)); err != nil {
		t.Fatal(err)
	}
	// The second key evicts the first... but may still use it as an
	// ancestor before eviction (extend), keeping the tree at one node.
	if _, err := tree.WarmCheckpoint(p2, key, buildBare(t, "lib.", p2)); err != nil {
		t.Fatal(err)
	}
	st := tree.Stats()
	if st.Nodes != 1 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 1 node / 1 eviction", st)
	}
	// Re-requesting the evicted short prefix is a rebuild, not a hit.
	built := false
	if _, err := tree.WarmCheckpoint(p1, key, func() (*sim.Runner, error) {
		built = true
		return buildBare(t, "lib.", p1)()
	}); err != nil {
		t.Fatal(err)
	}
	if !built {
		t.Fatal("evicted checkpoint served without rebuild")
	}
}
