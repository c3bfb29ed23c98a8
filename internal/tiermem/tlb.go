package tiermem

import "slices"

// TLB is one core's translation lookaside buffer, modelled as a
// fixed-capacity map with clock (second-chance) replacement. Its role in
// the reproduction is behavioural, not timing-accurate: it determines when
// page walks happen (walks set PTE accessed bits — the signal DAMON
// consumes) and it is the thing ANB and migrations must shoot down.
//
// Page tables are flat from VPN 0, so the VPN -> slot index is a dense
// array over the page table (4 B per page): every lookup is one load.
// The owning System sizes it as the table grows; a standalone TLB grows
// it on the first insert beyond its end.
type TLB struct {
	capacity int
	slots    []tlbSlot
	// index[v] is the slot caching VPN v, or -1. It holds an entry for
	// exactly the valid slots.
	index []int32
	hand  int

	hits       uint64
	misses     uint64
	shootdowns uint64
}

type tlbSlot struct {
	vpn      VPN
	valid    bool
	referred bool
}

// NewTLB builds a TLB with the given entry capacity. The platform default
// (1536, a Golden Cove dTLB-ish figure) is used when capacity <= 0.
func NewTLB(capacity int) *TLB {
	if capacity <= 0 {
		capacity = 1536
	}
	return &TLB{
		capacity: capacity,
		slots:    make([]tlbSlot, capacity),
	}
}

// reserve extends the index to cover VPNs below n.
func (t *TLB) reserve(n int) {
	for i := len(t.index); i < n; i++ {
		t.index = append(t.index, -1)
	}
}

// slotOf returns the slot caching v, or -1.
//
//m5:hotpath
func (t *TLB) slotOf(v VPN) int32 {
	if uint64(v) < uint64(len(t.index)) {
		return t.index[v]
	}
	return -1
}

// Lookup probes for the VPN. A hit refreshes the reference bit.
//
//m5:hotpath
func (t *TLB) Lookup(v VPN) bool {
	if i := t.slotOf(v); i >= 0 {
		t.slots[i].referred = true
		t.hits++
		return true
	}
	t.misses++
	return false
}

// Insert caches a translation, evicting by clock if full.
//
//m5:hotpath
func (t *TLB) Insert(v VPN) {
	if t.slotOf(v) >= 0 {
		return
	}
	if uint64(v) >= uint64(len(t.index)) {
		//m5:coldpath growth: only a standalone TLB outruns its index; a System's is sized at Alloc.
		t.reserve(int(v) + 1)
	}
	for {
		s := &t.slots[t.hand]
		if !s.valid {
			break
		}
		if !s.referred {
			t.index[s.vpn] = -1
			s.valid = false
			break
		}
		s.referred = false
		if t.hand++; t.hand == t.capacity {
			t.hand = 0
		}
	}
	t.slots[t.hand] = tlbSlot{vpn: v, valid: true, referred: true}
	t.index[v] = int32(t.hand)
	if t.hand++; t.hand == t.capacity {
		t.hand = 0
	}
}

// Invalidate drops the VPN if cached, returning whether it was present.
// This is the per-core half of a TLB shootdown.
func (t *TLB) Invalidate(v VPN) bool {
	i := t.slotOf(v)
	if i < 0 {
		return false
	}
	t.slots[i] = tlbSlot{}
	t.index[v] = -1
	t.shootdowns++
	return true
}

// Flush empties the TLB (context switch). It clears only the index
// entries of valid slots, so it costs O(capacity), not O(pages).
//
//m5:hotpath
func (t *TLB) Flush() {
	for i := range t.slots {
		if s := &t.slots[i]; s.valid {
			t.index[s.vpn] = -1
		}
		t.slots[i] = tlbSlot{}
	}
}

// Clone returns an independent copy of the TLB, its index included.
func (t *TLB) Clone() *TLB {
	d := *t
	d.slots = slices.Clone(t.slots)
	d.index = slices.Clone(t.index)
	return &d
}

// Len returns the number of cached translations.
func (t *TLB) Len() int {
	n := 0
	for i := range t.slots {
		if t.slots[i].valid {
			n++
		}
	}
	return n
}

// Hits returns the hit count.
func (t *TLB) Hits() uint64 { return t.hits }

// Misses returns the miss count.
func (t *TLB) Misses() uint64 { return t.misses }

// Shootdowns returns the number of invalidations that found an entry.
func (t *TLB) Shootdowns() uint64 { return t.shootdowns }
