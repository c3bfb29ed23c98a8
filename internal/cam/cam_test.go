package cam

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestFillBelowCapacity(t *testing.T) {
	c := NewSorted(3)
	if c.K() != 3 || c.Len() != 0 {
		t.Fatal("fresh CAM state wrong")
	}
	if !c.Update(1, 10) || !c.Update(2, 20) {
		t.Fatal("updates below capacity should be admitted")
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d", c.Len())
	}
	if c.Min() != 0 {
		t.Errorf("Min of non-full CAM = %d, want 0", c.Min())
	}
	if !c.Contains(1) || c.Contains(3) {
		t.Error("Contains mismatch")
	}
}

func TestHitUpdatesCount(t *testing.T) {
	c := NewSorted(2)
	c.Update(1, 5)
	c.Update(1, 9)
	top := c.TopK()
	if len(top) != 1 || top[0] != (Entry{Addr: 1, Count: 9}) {
		t.Errorf("TopK = %+v", top)
	}
}

func TestMissReplacesMinimumOnly(t *testing.T) {
	c := NewSorted(2)
	c.Update(1, 10)
	c.Update(2, 20)
	// Miss with count <= min: rejected.
	if c.Update(3, 10) {
		t.Error("count equal to min should be rejected")
	}
	if c.Contains(3) {
		t.Error("rejected address must not be resident")
	}
	// Miss with count > min: replaces entry 1.
	if !c.Update(4, 11) {
		t.Error("count above min should be admitted")
	}
	if c.Contains(1) {
		t.Error("minimum entry should have been evicted")
	}
	top := c.TopK()
	if top[0].Addr != 2 || top[1].Addr != 4 {
		t.Errorf("TopK = %+v", top)
	}
	if c.Min() != 11 {
		t.Errorf("Min = %d, want 11", c.Min())
	}
}

func TestTopKOrdering(t *testing.T) {
	c := NewSorted(4)
	c.Update(10, 5)
	c.Update(20, 5)
	c.Update(30, 7)
	top := c.TopK()
	want := []Entry{{30, 7}, {10, 5}, {20, 5}}
	if len(top) != 3 {
		t.Fatalf("TopK length %d", len(top))
	}
	for i := range want {
		if top[i] != want[i] {
			t.Fatalf("TopK = %+v, want %+v", top, want)
		}
	}
}

func TestReset(t *testing.T) {
	c := NewSorted(2)
	c.Update(1, 1)
	c.Update(2, 2)
	c.Reset()
	if c.Len() != 0 || c.Contains(1) || c.Min() != 0 {
		t.Error("Reset should clear all state")
	}
	if !c.Update(9, 1) {
		t.Error("CAM should be reusable after Reset")
	}
}

func TestPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for K=0")
		}
	}()
	NewSorted(0)
}

// TestTracksTrueTopKWithMonotoneCounts feeds monotonically increasing
// estimates (as a sketch produces for a steady stream) and checks the CAM
// converges on the true top-K.
func TestTracksTrueTopKWithMonotoneCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	truth := map[uint64]uint64{}
	c := NewSorted(5)
	// Zipf-ish stream over 100 keys.
	z := rand.NewZipf(rng, 1.5, 1, 99)
	for i := 0; i < 200000; i++ {
		k := z.Uint64()
		truth[k]++
		c.Update(k, truth[k])
	}
	// The CAM top-5 should equal the exact top-5.
	type kv struct {
		k, v uint64
	}
	var all []kv
	for k, v := range truth {
		all = append(all, kv{k, v})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v > all[j].v })
	want := map[uint64]bool{}
	for _, e := range all[:5] {
		want[e.k] = true
	}
	for _, e := range c.TopK() {
		if !want[e.Addr] {
			t.Errorf("CAM holds %d which is not in the exact top-5", e.Addr)
		}
	}
}

// Property: the CAM never holds more than K entries, every resident address
// is found by Contains, and Min never exceeds any resident count once full.
func TestInvariants(t *testing.T) {
	f := func(ops []uint16, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := NewSorted(4)
		counts := map[uint64]uint64{}
		for range ops {
			k := uint64(rng.Intn(12))
			counts[k]++
			c.Update(k, counts[k])
			if c.Len() > 4 {
				return false
			}
			min := c.Min()
			for _, e := range c.TopK() {
				if !c.Contains(e.Addr) {
					return false
				}
				if c.Len() == 4 && e.Count < min {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestDecay(t *testing.T) {
	c := NewSorted(4)
	c.Update(1, 10)
	c.Update(2, 1)
	c.Update(3, 3)
	c.Decay()
	top := c.TopK()
	if len(top) != 2 {
		t.Fatalf("after decay: %+v", top)
	}
	if top[0] != (Entry{Addr: 1, Count: 5}) || top[1] != (Entry{Addr: 3, Count: 1}) {
		t.Errorf("decayed entries = %+v", top)
	}
	if c.Contains(2) {
		t.Error("zero-count entry should be evicted")
	}
	// Index stays consistent: updating a survivor hits it.
	if !c.Update(3, 9) || c.Len() != 2 {
		t.Error("post-decay update should hit the surviving entry")
	}
}

// scanCAM is the sorted CAM before its minimum was kept incrementally: a
// Go map for the tag index, and a minimum cleared on every update and
// found again by scanning all K entries. Its update applies the guard the
// tracker used to put in front of Update (resident, or count above Min).
// Sorted must reproduce it step for step.
type scanCAM struct {
	k       int
	entries []Entry
	index   map[uint64]int
	minPos  int
	minOK   bool
}

func newScanCAM(k int) *scanCAM { return &scanCAM{k: k, index: map[uint64]int{}} }

func (o *scanCAM) clone() *scanCAM {
	c := *o
	c.entries, c.index = slices.Clone(o.entries), maps.Clone(o.index)
	return &c
}

func (o *scanCAM) update(addr, count uint64) bool {
	if _, ok := o.index[addr]; !ok && count <= o.Min() {
		return false // the tracker's guard
	}
	if pos, ok := o.index[addr]; ok {
		o.entries[pos].Count = count
		o.minOK = false
		return true
	}
	if len(o.entries) < o.k {
		o.entries = append(o.entries, Entry{Addr: addr, Count: count})
		o.index[addr] = len(o.entries) - 1
		o.minOK = false
		return true
	}
	min := o.min()
	if count <= o.entries[min].Count {
		return false
	}
	delete(o.index, o.entries[min].Addr)
	o.entries[min] = Entry{Addr: addr, Count: count}
	o.index[addr] = min
	o.minOK = false
	return true
}

func (o *scanCAM) Min() uint64 {
	if len(o.entries) < o.k {
		return 0
	}
	return o.entries[o.min()].Count
}

func (o *scanCAM) min() int {
	if o.minOK {
		return o.minPos
	}
	pos := 0
	for i := 1; i < len(o.entries); i++ {
		if o.entries[i].Count < o.entries[pos].Count {
			pos = i
		}
	}
	o.minPos, o.minOK = pos, true
	return pos
}

func (o *scanCAM) topK() []Entry {
	out := append([]Entry{}, o.entries...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Addr < out[j].Addr
	})
	return out
}

func (o *scanCAM) reindex() {
	o.index = map[uint64]int{}
	for i, e := range o.entries {
		o.index[e.Addr] = i
	}
	o.minOK = false
}

func (o *scanCAM) decay() {
	var kept []Entry
	for _, e := range o.entries {
		if e.Count /= 2; e.Count != 0 {
			kept = append(kept, e)
		}
	}
	o.entries = kept
	o.reindex()
}

// TestSortedMatchesScanCAM drives Sorted and scanCAM with the same seeded
// streams and compares Update's return, Contains, Min, Len and TopK after
// every step. Each stream mixes counts that rise (a sketch estimate),
// fall (Sticky Sampling's pruning), drop to zero (which a CAM below
// capacity must refuse), tie the current minimum or a resident entry, or
// take a small random value, over a key space three times K, so ties at
// the minimum, hits on the minimum entry and evictions happen throughout.
// Reset and Decay are mixed in. Halfway, the stream is cut by a Clone of
// both CAMs: the original continues against scanCAM, and then the clone
// continues against scanCAM's clone with the same tail.
func TestSortedMatchesScanCAM(t *testing.T) {
	for _, k := range []int{1, 2, 5, 64, 128} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("K%d/seed%d", k, seed), func(t *testing.T) {
				c, o := NewSorted(k), newScanCAM(k)
				est := map[uint64]uint64{}
				driveCAM(t, rand.New(rand.NewSource(seed)), c, o, est, 3000)
				clone, ref, refEst := c.Clone(), o.clone(), maps.Clone(est)
				driveCAM(t, rand.New(rand.NewSource(-seed)), c, o, est, 3000)
				driveCAM(t, rand.New(rand.NewSource(-seed)), clone, ref, refEst, 3000)
			})
		}
	}
}

// driveCAM runs steps random observations through c and o, with est as
// the sketch estimate of each key, and fails at the first difference.
func driveCAM(t *testing.T, rng *rand.Rand, c *Sorted, o *scanCAM, est map[uint64]uint64, steps int) {
	t.Helper()
	k := c.K()
	for step := 0; step < steps; step++ {
		switch r := rng.Intn(1000); {
		case r == 0:
			c.Reset()
			o.entries = o.entries[:0]
			o.reindex()
			clear(est)
		case r < 4:
			c.Decay()
			o.decay()
		}
		key := uint64(rng.Intn(3*k + 1))
		var count uint64
		switch rng.Intn(6) {
		case 0, 1:
			est[key] += uint64(rng.Intn(3))
			count = est[key]
		case 2:
			est[key] -= min(est[key], uint64(rng.Intn(3)))
			count = est[key]
		case 3:
			count = 0
		case 4:
			count = o.Min()
			if len(o.entries) > 0 && rng.Intn(2) == 0 {
				count = o.entries[rng.Intn(len(o.entries))].Count
			}
		default:
			count = uint64(rng.Intn(6))
		}
		got, want := c.Update(key, count), o.update(key, count)
		if got != want {
			t.Fatalf("step %d: Update(%d, %d) = %v, scan CAM %v", step, key, count, got, want)
		}
		probe := uint64(rng.Intn(3*k + 1))
		_, inO := o.index[probe]
		if c.Contains(key) != want || c.Contains(probe) != inO {
			t.Fatalf("step %d: Contains(%d) = %v, Contains(%d) = %v; scan CAM %v, %v",
				step, key, c.Contains(key), probe, c.Contains(probe), want, inO)
		}
		if c.Min() != o.Min() || c.Len() != len(o.entries) {
			t.Fatalf("step %d: Min %d Len %d, scan CAM Min %d Len %d", step, c.Min(), c.Len(), o.Min(), len(o.entries))
		}
		if got, want := c.TopK(), o.topK(); !slices.Equal(got, want) {
			t.Fatalf("step %d: TopK %v, scan CAM %v", step, got, want)
		}
	}
}

// TestIndexMatchesMap drives an Index through puts and deletes over a key
// space larger than its capacity, in a table small enough that probe
// chains wrap past its end, and checks every key against a Go map after
// each operation. At the end, Reset must leave the index empty.
func TestIndexMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const capacity, keys = 8, 40
		x, want := NewIndex(capacity), map[uint64]int32{}
		for step := 0; step < 20000; step++ {
			key := uint64(rng.Intn(keys)) << uint(rng.Intn(3)*20)
			if _, ok := want[key]; ok {
				x.Delete(key)
				delete(want, key)
			} else if len(want) < capacity {
				slot := int32(rng.Intn(capacity))
				x.Put(key, slot)
				want[key] = slot
			} else {
				x.Delete(key) // absent: a no-op
			}
			for k := uint64(0); k < keys; k++ {
				for shift := uint(0); shift <= 40; shift += 20 {
					slot, ok := x.Get(k << shift)
					if w, wok := want[k<<shift]; ok != wok || slot != w {
						t.Fatalf("seed %d step %d: Get(%d) = %d, %v; want %d, %v", seed, step, k<<shift, slot, ok, w, wok)
					}
				}
			}
		}
		x.Reset()
		for k := range want {
			if _, ok := x.Get(k); ok {
				t.Fatalf("seed %d: key %d survives Reset", seed, k)
			}
		}
	}
}
