package sketch

import (
	"container/heap"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// ssOracle is Space-Saving as it stood on container/heap: the same
// eviction rule over a heap driven through heap.Interface, with Top as a
// full SortKeyCounts sort truncated to k. SpaceSaving's concrete heap
// must reproduce it step for step, ties included.
type ssOracle struct {
	capacity int
	h        oracleHeap
	index    map[uint64]*oracleEntry
}

type oracleEntry struct {
	key, count, err uint64
	pos             int
}

type oracleHeap []*oracleEntry

func (h oracleHeap) Len() int           { return len(h) }
func (h oracleHeap) Less(i, j int) bool { return h[i].count < h[j].count }
func (h oracleHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].pos = i
	h[j].pos = j
}
func (h *oracleHeap) Push(x any) {
	e := x.(*oracleEntry)
	e.pos = len(*h)
	*h = append(*h, e)
}
func (h *oracleHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

func newSSOracle(n int) *ssOracle {
	return &ssOracle{capacity: n, index: map[uint64]*oracleEntry{}}
}

func (o *ssOracle) addN(key, n uint64) uint64 {
	if n == 0 {
		if e, ok := o.index[key]; ok {
			return e.count
		}
		return 0
	}
	if e, ok := o.index[key]; ok {
		e.count += n
		heap.Fix(&o.h, e.pos)
		return e.count
	}
	if len(o.h) < o.capacity {
		e := &oracleEntry{key: key, count: 1}
		heap.Push(&o.h, e)
		o.index[key] = e
		e.count = n
		heap.Fix(&o.h, e.pos)
		return n
	}
	min := o.h[0]
	delete(o.index, min.key)
	min.err = min.count
	min.count += n
	min.key = key
	o.index[key] = min
	heap.Fix(&o.h, 0)
	return min.count
}

func (o *ssOracle) top(k int) []KeyCount {
	out := []KeyCount{}
	for _, e := range o.h {
		out = append(out, KeyCount{Key: e.key, Count: e.count})
	}
	SortKeyCounts(out)
	return out[:max(0, min(k, len(out)))]
}

// TestSpaceSavingMatchesHeapOracle drives random AddN streams (weight 1 on
// two steps in three, 0 to 3 on the rest) over a key space a few times the
// capacity, so count ties and evictions happen on most steps, and compares
// the counter with the container/heap oracle after every step: the heap
// layout, every key's estimate and error, and Top at k around the
// interesting edges (a negative k asks for nothing).
func TestSpaceSavingMatchesHeapOracle(t *testing.T) {
	for _, tc := range []struct{ capacity, keys int }{{1, 3}, {2, 5}, {5, 12}, {16, 40}} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("N%d/seed%d", tc.capacity, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				ss, o := NewSpaceSaving(tc.capacity), newSSOracle(tc.capacity)
				for step := 0; step < 2000; step++ {
					key := uint64(rng.Intn(tc.keys))
					var got, want uint64
					if rng.Intn(3) == 0 {
						n := uint64(rng.Intn(4)) // 0 is a pure query
						got, want = ss.AddN(key, n), o.addN(key, n)
					} else {
						got, want = ss.AddN(key, 1), o.addN(key, 1)
					}
					if got != want {
						t.Fatalf("step %d: add(%d) = %d, oracle %d", step, key, got, want)
					}
					compareSSOracle(t, step, ss, o, tc.keys)
				}
			})
		}
	}
}

// TestSpaceSavingResetMatchesFresh fills counters with one key, half
// their capacity or all of it, resets them, and drives them on like
// TestSpaceSavingMatchesHeapOracle against a fresh oracle, resetting both
// twice more along the way: a key a reset leaves behind shows up as a
// wrong estimate, error or Top.
func TestSpaceSavingResetMatchesFresh(t *testing.T) {
	for _, capacity := range []int{5, 64, 200} {
		keys := 3 * capacity
		for _, fill := range []int{1, capacity / 2, capacity} {
			t.Run(fmt.Sprintf("N%d/fill%d", capacity, fill), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(fill)))
				ss := NewSpaceSaving(capacity)
				for _, k := range rng.Perm(keys)[:fill] {
					ss.AddN(uint64(k), 1+uint64(rng.Intn(3)))
				}
				ss.Reset()
				o := newSSOracle(capacity)
				for step := 0; step < 900; step++ {
					if step == 300 || step == 600 {
						ss.Reset()
						o = newSSOracle(capacity)
					}
					key := uint64(rng.Intn(keys))
					n := 1 + uint64(rng.Intn(3))
					if got, want := ss.AddN(key, n), o.addN(key, n); got != want {
						t.Fatalf("step %d: add(%d, %d) = %d, oracle %d", step, key, n, got, want)
					}
					compareSSOracle(t, step, ss, o, keys)
				}
			})
		}
	}
}

// TestSpaceSavingAddNMatchesUnitAdds pins AddN(k, n) to n unit adds: the
// same heap layout, counts and errors, so a later eviction among entries
// tied at the minimum drops the same key. In the first case, with keys 1
// and 2 tied at 2, pushing key 3 at count 3 leaves key 2 at the root,
// where three unit adds leave key 1, so key 5 would evict a different
// key.
func TestSpaceSavingAddNMatchesUnitAdds(t *testing.T) {
	type op struct{ key, n uint64 }
	check := func(t *testing.T, capacity int, ops []op) {
		t.Helper()
		weighted, unit := NewSpaceSaving(capacity), NewSpaceSaving(capacity)
		for i, o := range ops {
			if o.n == 0 {
				weighted.Reset()
				unit.Reset()
				continue
			}
			weighted.AddN(o.key, o.n)
			for j := uint64(0); j < o.n; j++ {
				unit.AddN(o.key, 1)
			}
			for h, e := range weighted.entries {
				u := unit.entries[h]
				if e.key != u.key || e.count != u.count || e.err != u.err {
					t.Fatalf("after op %d %v: heap[%d] = {%d %d err %d}, unit adds {%d %d err %d}",
						i, ops[:i+1], h, e.key, e.count, e.err, u.key, u.count, u.err)
				}
			}
			if len(weighted.entries) != len(unit.entries) {
				t.Fatalf("after op %d: %d tracked, unit adds %d", i, len(weighted.entries), len(unit.entries))
			}
		}
	}
	check(t, 3, []op{{1, 1}, {1, 1}, {2, 1}, {2, 1}, {3, 3}, {5, 1}})

	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		ops := make([]op, 1+rng.Intn(24))
		for i := range ops {
			if rng.Intn(16) == 0 {
				continue // {0, 0} resets both counters
			}
			ops[i] = op{key: uint64(rng.Intn(10)), n: uint64(1 + rng.Intn(4))}
		}
		check(t, 1+rng.Intn(6), ops)
	}
}

func compareSSOracle(t *testing.T, step int, ss *SpaceSaving, o *ssOracle, keys int) {
	t.Helper()
	if ss.Tracked() != len(o.h) {
		t.Fatalf("step %d: Tracked = %d, oracle %d", step, ss.Tracked(), len(o.h))
	}
	for i, e := range ss.entries {
		if e.key != o.h[i].key || e.count != o.h[i].count || e.pos != i {
			t.Fatalf("step %d: heap[%d] = {%d %d pos %d}, oracle {%d %d}",
				step, i, e.key, e.count, e.pos, o.h[i].key, o.h[i].count)
		}
	}
	for k := uint64(0); k < uint64(keys); k++ {
		oe, tracked := o.index[k]
		var wantEst, wantErr uint64
		if tracked {
			wantEst, wantErr = oe.count, oe.err
		}
		gotErr, gotTracked := ss.Error(k)
		if ss.Estimate(k) != wantEst || gotErr != wantErr || gotTracked != tracked {
			t.Fatalf("step %d: key %d estimate/error = %d/%d/%v, oracle %d/%d/%v",
				step, k, ss.Estimate(k), gotErr, gotTracked, wantEst, wantErr, tracked)
		}
	}
	n := ss.Tracked()
	for _, k := range []int{-3, 0, 1, 5, n, n + 3} {
		if got, want := ss.Top(k), o.top(k); !slices.Equal(got, want) {
			t.Fatalf("step %d: Top(%d) = %v, oracle %v", step, k, got, want)
		}
	}
}

// topSink keeps BenchmarkSpaceSavingTop's result live.
var topSink []KeyCount

// BenchmarkSpaceSavingTop times one top-5 query on a full table, the
// per-epoch cost Figure 7's Space-Saving cells pay at each N.
func BenchmarkSpaceSavingTop(b *testing.B) {
	for _, n := range []int{50, 2048, 32768} {
		b.Run(fmt.Sprintf("N%d", n), func(b *testing.B) {
			ss := NewSpaceSaving(n)
			for _, k := range benchKeys(4 * n) {
				ss.AddN(k, 1)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				topSink = ss.Top(5)
			}
		})
	}
}
