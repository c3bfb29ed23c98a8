package sketch

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestExactCounter(t *testing.T) {
	e := NewExact()
	if got := e.AddN(5, 1); got != 1 {
		t.Errorf("first AddN = %d", got)
	}
	if got := e.AddN(5, 1); got != 2 {
		t.Errorf("second AddN = %d", got)
	}
	if e.Estimate(5) != 2 || e.Estimate(6) != 0 {
		t.Error("Estimate mismatch")
	}
	if e.Entries() != 1 {
		t.Errorf("Entries = %d", e.Entries())
	}
	e.Reset()
	if e.Estimate(5) != 0 {
		t.Error("Reset should clear counts")
	}
}

func TestCountMinNeverUnderestimates(t *testing.T) {
	// The defining CM-Sketch property: estimate >= true count.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cm := NewCountMin(64)
		truth := map[uint64]uint64{}
		for i := 0; i < 5000; i++ {
			k := rng.Uint64() % 200
			truth[k]++
			cm.AddN(k, 1)
		}
		for k, c := range truth {
			if cm.Estimate(k) < c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestCountMinConservativeNeverUnderestimates(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cm := NewCountMin(64, WithConservativeUpdate())
		truth := map[uint64]uint64{}
		for i := 0; i < 5000; i++ {
			k := rng.Uint64() % 200
			truth[k]++
			cm.AddN(k, 1)
		}
		for k, c := range truth {
			if cm.Estimate(k) < c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestCountMinExactWhenNoCollisions(t *testing.T) {
	// With far more columns than keys, collisions are unlikely; estimates
	// should then equal true counts for a handful of keys.
	cm := NewCountMin(1 << 16)
	for i := 0; i < 100; i++ {
		for j := uint64(0); j < 5; j++ {
			cm.AddN(j, 1)
		}
	}
	for j := uint64(0); j < 5; j++ {
		if cm.Estimate(j) != 100 {
			t.Errorf("Estimate(%d) = %d, want 100", j, cm.Estimate(j))
		}
	}
}

func TestCountMinConservativeAtLeastAsAccurate(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	plain := NewCountMin(128)
	cons := NewCountMin(128, WithConservativeUpdate())
	truth := map[uint64]uint64{}
	for i := 0; i < 50000; i++ {
		k := uint64(rng.Intn(2000))
		truth[k]++
		plain.AddN(k, 1)
		cons.AddN(k, 1)
	}
	var errPlain, errCons uint64
	for k, c := range truth {
		errPlain += plain.Estimate(k) - c
		errCons += cons.Estimate(k) - c
	}
	if errCons > errPlain {
		t.Errorf("conservative update error %d > plain %d", errCons, errPlain)
	}
}

func TestCountMinAddReturnsEstimate(t *testing.T) {
	cm := NewCountMin(8)
	got := cm.AddN(42, 1)
	if got != cm.Estimate(42) {
		t.Errorf("AddN returned %d, Estimate = %d", got, cm.Estimate(42))
	}
}

func TestCountMinResetAndShape(t *testing.T) {
	cm := NewCountMin(16)
	cm.AddN(1, 1)
	cm.Reset()
	if cm.Estimate(1) != 0 {
		t.Error("Reset should clear estimates")
	}
	if cm.Entries() != 64 {
		t.Errorf("Entries = %d, want 64", cm.Entries())
	}
}

func TestCountMinPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for zero width")
		}
	}()
	NewCountMin(0)
}

func TestSpaceSavingExactUnderCapacity(t *testing.T) {
	ss := NewSpaceSaving(10)
	for i := 0; i < 5; i++ {
		for j := 0; j <= i; j++ {
			ss.AddN(uint64(i), 1)
		}
	}
	for i := uint64(0); i < 5; i++ {
		if got := ss.Estimate(i); got != uint64(i)+1 {
			t.Errorf("Estimate(%d) = %d, want %d", i, got, i+1)
		}
		if e, ok := ss.Error(i); !ok || e != 0 {
			t.Errorf("Error(%d) = %d,%v; want 0,true", i, e, ok)
		}
	}
	if ss.Tracked() != 5 {
		t.Errorf("Tracked = %d", ss.Tracked())
	}
}

func TestSpaceSavingEviction(t *testing.T) {
	ss := NewSpaceSaving(2)
	ss.AddN(1, 1) // {1:1}
	ss.AddN(1, 1) // {1:2}
	ss.AddN(2, 1) // {1:2, 2:1}
	ss.AddN(3, 1) // evicts 2 (min=1): {1:2, 3:2 err=1}
	if ss.Estimate(2) != 0 {
		t.Error("evicted key should estimate 0")
	}
	if got := ss.Estimate(3); got != 2 {
		t.Errorf("Estimate(3) = %d, want 2 (inherited min+1)", got)
	}
	if e, ok := ss.Error(3); !ok || e != 1 {
		t.Errorf("Error(3) = %d,%v; want 1,true", e, ok)
	}
	if ss.Estimate(1) != 2 {
		t.Errorf("Estimate(1) = %d", ss.Estimate(1))
	}
}

func TestSpaceSavingOverestimates(t *testing.T) {
	// Space-Saving guarantees estimate >= true count for tracked keys.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ss := NewSpaceSaving(16)
		truth := map[uint64]uint64{}
		for i := 0; i < 3000; i++ {
			k := uint64(rng.Intn(100))
			truth[k]++
			ss.AddN(k, 1)
		}
		for _, kc := range ss.Top(ss.Tracked()) {
			if kc.Count < truth[kc.Key] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestSpaceSavingFindsHeavyHitter(t *testing.T) {
	// A key taking >50% of a stream must be the top entry (classic
	// Space-Saving majority guarantee).
	rng := rand.New(rand.NewSource(3))
	ss := NewSpaceSaving(8)
	for i := 0; i < 10000; i++ {
		if i%2 == 0 {
			ss.AddN(777, 1)
		} else {
			ss.AddN(rng.Uint64(), 1)
		}
	}
	top := ss.Top(1)
	if len(top) != 1 || top[0].Key != 777 {
		t.Errorf("Top(1) = %+v, want key 777", top)
	}
}

func TestSpaceSavingTopOrderingAndReset(t *testing.T) {
	ss := NewSpaceSaving(8)
	for i := 0; i < 3; i++ {
		ss.AddN(10, 1)
	}
	for i := 0; i < 2; i++ {
		ss.AddN(20, 1)
	}
	ss.AddN(30, 1)
	top := ss.Top(10)
	if len(top) != 3 {
		t.Fatalf("Top length %d", len(top))
	}
	if top[0].Key != 10 || top[1].Key != 20 || top[2].Key != 30 {
		t.Errorf("Top order wrong: %+v", top)
	}
	ss.Reset()
	if ss.Tracked() != 0 || ss.Estimate(10) != 0 {
		t.Error("Reset should clear state")
	}
}

func TestSpaceSavingHeapIndexConsistency(t *testing.T) {
	// Stress the heap/index bookkeeping with many evictions, then verify
	// every tracked key estimates to a positive count and AddN on a tracked
	// key hits the right entry.
	rng := rand.New(rand.NewSource(9))
	ss := NewSpaceSaving(32)
	for i := 0; i < 100000; i++ {
		ss.AddN(rng.Uint64()%1000, 1)
	}
	for _, kc := range ss.Top(ss.Tracked()) {
		before := ss.Estimate(kc.Key)
		after := ss.AddN(kc.Key, 1)
		if after != before+1 {
			t.Fatalf("AddN on tracked key %d: %d -> %d", kc.Key, before, after)
		}
	}
}

func TestStickySamplingTracksHeavyHitters(t *testing.T) {
	ss := NewStickySampling(64, 1)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 50000; i++ {
		if i%3 == 0 {
			ss.AddN(42, 1)
		} else {
			ss.AddN(rng.Uint64(), 1)
		}
	}
	if ss.Estimate(42) == 0 {
		t.Error("heavy hitter should be tracked")
	}
	if ss.Tracked() > 64*2 {
		t.Errorf("tracked set grew unbounded: %d", ss.Tracked())
	}
}

func TestStickySamplingNeverOverestimates(t *testing.T) {
	// Sticky sampling undercounts (admission is delayed), never overcounts.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ss := NewStickySampling(32, seed)
		truth := map[uint64]uint64{}
		for i := 0; i < 5000; i++ {
			k := uint64(rng.Intn(200))
			truth[k]++
			ss.AddN(k, 1)
		}
		for k, c := range truth {
			if ss.Estimate(k) > c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestStickySamplingReset(t *testing.T) {
	ss := NewStickySampling(8, 5)
	for i := 0; i < 100; i++ {
		ss.AddN(1, 1)
	}
	ss.Reset()
	if ss.Tracked() != 0 || ss.Estimate(1) != 0 {
		t.Error("Reset should clear state")
	}
	if ss.Entries() != 8 {
		t.Errorf("Entries = %d", ss.Entries())
	}
}

func TestCounterInterfaceCompliance(t *testing.T) {
	counters := []Counter{
		NewExact(),
		NewCountMin(64),
		NewSpaceSaving(16),
		NewStickySampling(16, 1),
	}
	for _, c := range counters {
		c.AddN(1, 1)
		c.AddN(1, 1)
		if c.Estimate(1) == 0 {
			t.Errorf("%T: repeated key should have nonzero estimate", c)
		}
		c.Reset()
	}
}

// TestCloneContinuesIndependently clones every counter mid-stream, runs
// the original on through a tail (with a Decay or Reset midway where the
// counter has one), and then requires the clone, fed the same tail, to
// return every estimate the original returned. A clone that shared state
// with its source would see the tail twice. The key space is several
// times the small counters' capacity, so Space-Saving evicts and Sticky
// Sampling rescales, drawing from its RNG, on both sides of the cut.
func TestCloneContinuesIndependently(t *testing.T) {
	for _, mk := range []func() Counter{
		func() Counter { return NewExact() },
		func() Counter { return NewCountMin(64) },
		func() Counter { return NewCountMin(64, WithConservativeUpdate()) },
		func() Counter { return NewSpaceSaving(32) },
		func() Counter { return NewStickySampling(32, 1) },
	} {
		c := mk()
		rng := rand.New(rand.NewSource(7))
		stream := func(n int) (keys, weights []uint64) {
			for i := 0; i < n; i++ {
				keys = append(keys, uint64(rng.Intn(256)))
				weights = append(weights, 1+uint64(rng.Intn(3)))
			}
			return keys, weights
		}
		run := func(c Counter, keys, weights []uint64) []uint64 {
			out := make([]uint64, len(keys))
			for i, k := range keys {
				if i == len(keys)/2 {
					if d, ok := c.(Decayer); ok {
						d.Decay()
					} else {
						c.Reset()
					}
				}
				out[i] = c.AddN(k, weights[i])
			}
			return out
		}
		keys, weights := stream(5000)
		run(c, keys, weights)
		clone := c.Clone()
		keys, weights = stream(5000)
		want := run(c, keys, weights)
		got := run(clone, keys, weights)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%T: tail add %d of key %d: clone %d, original %d", c, i, keys[i], got[i], want[i])
			}
		}
	}
}

func TestSortKeyCounts(t *testing.T) {
	kc := []KeyCount{{Key: 3, Count: 1}, {Key: 1, Count: 5}, {Key: 2, Count: 5}}
	SortKeyCounts(kc)
	want := []KeyCount{{Key: 1, Count: 5}, {Key: 2, Count: 5}, {Key: 3, Count: 1}}
	for i := range want {
		if kc[i] != want[i] {
			t.Fatalf("SortKeyCounts = %+v", kc)
		}
	}
}

func TestCountMinDecay(t *testing.T) {
	cm := NewCountMin(64)
	for i := 0; i < 10; i++ {
		cm.AddN(7, 1)
	}
	cm.Decay()
	if got := cm.Estimate(7); got != 5 {
		t.Errorf("decayed estimate = %d, want 5", got)
	}
}

func TestExactDecay(t *testing.T) {
	e := NewExact()
	e.AddN(1, 1)
	for i := 0; i < 4; i++ {
		e.AddN(2, 1)
	}
	e.Decay()
	if e.Estimate(1) != 0 {
		t.Error("count 1 should decay away")
	}
	if e.Estimate(2) != 2 {
		t.Errorf("count 4 should halve to 2, got %d", e.Estimate(2))
	}
}
