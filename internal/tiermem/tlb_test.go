package tiermem

import (
	"math/rand"
	"testing"
)

// mapTLB is the TLB's clock algorithm over a built-in map index: the
// reference the dense slot map must match operation for operation.
type mapTLB struct {
	slots                    []tlbSlot
	index                    map[VPN]int
	hand                     int
	hits, misses, shootdowns uint64
}

func newMapTLB(capacity int) *mapTLB {
	return &mapTLB{slots: make([]tlbSlot, capacity), index: map[VPN]int{}}
}

func (t *mapTLB) Lookup(v VPN) bool {
	if i, ok := t.index[v]; ok {
		t.slots[i].referred = true
		t.hits++
		return true
	}
	t.misses++
	return false
}

func (t *mapTLB) Insert(v VPN) {
	if _, ok := t.index[v]; ok {
		return
	}
	for {
		s := &t.slots[t.hand]
		if !s.valid {
			break
		}
		if !s.referred {
			delete(t.index, s.vpn)
			s.valid = false
			break
		}
		s.referred = false
		t.hand = (t.hand + 1) % len(t.slots)
	}
	t.slots[t.hand] = tlbSlot{vpn: v, valid: true, referred: true}
	t.index[v] = t.hand
	t.hand = (t.hand + 1) % len(t.slots)
}

func (t *mapTLB) Invalidate(v VPN) bool {
	i, ok := t.index[v]
	if !ok {
		return false
	}
	t.slots[i] = tlbSlot{}
	delete(t.index, v)
	t.shootdowns++
	return true
}

func (t *mapTLB) Flush() {
	for i := range t.slots {
		t.slots[i] = tlbSlot{}
	}
	t.index = map[VPN]int{}
}

func (t *mapTLB) clone() *mapTLB {
	c := *t
	c.slots = append([]tlbSlot(nil), t.slots...)
	c.index = make(map[VPN]int, len(t.index))
	for v, i := range t.index {
		c.index[v] = i
	}
	return &c
}

// tlbOp is one step of a random TLB stream.
type tlbOp struct {
	kind int // 0 Lookup, 1 Insert, 2 Invalidate, 3 Flush, 4 translate (Lookup, Insert on a miss)
	vpn  VPN
}

func randomTLBOps(rng *rand.Rand, n int, vpn func() VPN) []tlbOp {
	ops := make([]tlbOp, n)
	for i := range ops {
		k, kind := rng.Intn(100), 4
		switch {
		case k < 15:
			kind = 0
		case k < 30:
			kind = 1
		case k < 40:
			kind = 2
		case k < 41:
			kind = 3
		}
		ops[i] = tlbOp{kind: kind, vpn: vpn()}
	}
	return ops
}

// runTLBOps applies ops to the TLB and the reference, failing on the
// first return value, counter or occupancy that differs.
func runTLBOps(t *testing.T, got *TLB, want *mapTLB, ops []tlbOp) {
	t.Helper()
	for i, op := range ops {
		var g, w bool
		switch op.kind {
		case 0:
			g, w = got.Lookup(op.vpn), want.Lookup(op.vpn)
		case 1:
			got.Insert(op.vpn)
			want.Insert(op.vpn)
		case 2:
			g, w = got.Invalidate(op.vpn), want.Invalidate(op.vpn)
		case 3:
			got.Flush()
			want.Flush()
		case 4:
			if g, w = got.Lookup(op.vpn), want.Lookup(op.vpn); !g {
				got.Insert(op.vpn)
				want.Insert(op.vpn)
			}
		}
		if g != w {
			t.Fatalf("op %d %+v: TLB %v, reference %v", i, op, g, w)
		}
		if got.Hits() != want.hits || got.Misses() != want.misses || got.Shootdowns() != want.shootdowns ||
			got.Len() != len(want.index) || got.hand != want.hand {
			t.Fatalf("op %d %+v: hits/misses/shootdowns/len/hand %d/%d/%d/%d/%d, reference %d/%d/%d/%d/%d",
				i, op, got.Hits(), got.Misses(), got.Shootdowns(), got.Len(), got.hand,
				want.hits, want.misses, want.shootdowns, len(want.index), want.hand)
		}
	}
}

// TestTLBMatchesMapReference drives the dense slot map and a map-indexed
// clock TLB with the same seeded streams and requires identical results,
// for a System's TLB (VPNs up to the arena's last page) and for
// standalone TLBs whose VPNs run past the index they have grown so far.
// Each stream is cut by a Clone of the TLB and of the reference: the
// original continues against the reference, and then the clone continues
// against the reference's clone.
func TestTLBMatchesMapReference(t *testing.T) {
	const arena = 300
	for _, tc := range []struct {
		name     string
		capacity int
		tlb      func() *TLB
		vpn      func(*rand.Rand) VPN
	}{
		{"system", 16, func() *TLB {
			s := NewSystem(Config{DDRPages: 64, CXLPages: arena, Cores: 1, TLBEntries: 16})
			if _, err := s.Alloc(arena, NodeCXL); err != nil {
				t.Fatal(err)
			}
			return s.TLB(0)
		}, func(rng *rand.Rand) VPN {
			if rng.Intn(8) == 0 {
				return arena - 1 // the last page the index covers
			}
			return VPN(rng.Intn(arena))
		}},
		{"standalone", 8, func() *TLB { return NewTLB(8) }, func(rng *rand.Rand) VPN {
			if rng.Intn(10) == 0 {
				return VPN(1<<12 + rng.Intn(1<<12)) // past the index's current end
			}
			return VPN(rng.Intn(64))
		}},
		{"standalone-single", 1, func() *TLB { return NewTLB(1) }, func(rng *rand.Rand) VPN {
			return VPN(rng.Intn(6))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(tc.name))))
			vpn := func() VPN { return tc.vpn(rng) }
			got, want := tc.tlb(), newMapTLB(tc.capacity)
			runTLBOps(t, got, want, randomTLBOps(rng, 20_000, vpn))

			clone, ref := got.Clone(), want.clone()
			runTLBOps(t, got, want, randomTLBOps(rng, 5_000, vpn))
			runTLBOps(t, clone, ref, randomTLBOps(rng, 5_000, vpn))
		})
	}
}

// TestTLBIndexSizedByAlloc pins that a System's TLBs never grow their
// index on the translate path: Alloc and AllocHuge size it to the page
// table.
func TestTLBIndexSizedByAlloc(t *testing.T) {
	s := NewSystem(Config{DDRPages: 64, CXLPages: 2048, Cores: 2})
	if _, err := s.Alloc(100, NodeCXL); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AllocHuge(1, NodeCXL); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < s.Cores(); c++ {
		if n := len(s.TLB(c).index); n != s.PageTable().Len() {
			t.Errorf("core %d index covers %d VPNs, page table has %d", c, n, s.PageTable().Len())
		}
	}
}
