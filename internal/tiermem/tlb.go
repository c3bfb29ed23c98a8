package tiermem

// TLB is one core's translation lookaside buffer, modelled as a
// fixed-capacity map with clock (second-chance) replacement. Its role in
// the reproduction is behavioural, not timing-accurate: it determines when
// page walks happen (walks set PTE accessed bits — the signal DAMON
// consumes) and it is the thing ANB and migrations must shoot down.
type TLB struct {
	capacity int
	slots    []tlbSlot
	index    tlbIndex
	hand     int
	// lastVPN/lastSlot memoize the most recent hit or insert, short-
	// circuiting the index probe for the (very common) consecutive accesses
	// to one page. lastSlot is -1 when no memo is held; the memo is
	// dropped whenever its entry could have been evicted or invalidated.
	lastVPN  VPN
	lastSlot int32

	hits       uint64
	misses     uint64
	shootdowns uint64
}

type tlbSlot struct {
	vpn      VPN
	valid    bool
	referred bool
}

// tlbIndex maps VPN -> slot number with open addressing (linear probing,
// backward-shift deletion). It replaces the built-in map on the translate
// hot path: every operation is an exact-key probe — nothing ever iterates
// the index — so the replacement is behaviourally invisible while cutting
// the per-access hash/bucket overhead. Sized at ≥2× the TLB capacity, the
// load factor stays below one half.
type tlbIndex struct {
	keys  []VPN
	slots []int32 // -1 marks an empty cell
	mask  uint64
	shift uint
}

func newTLBIndex(capacity int) tlbIndex {
	size := 1
	for size < 2*capacity {
		size <<= 1
	}
	x := tlbIndex{
		keys:  make([]VPN, size),
		slots: make([]int32, size),
		mask:  uint64(size - 1),
		shift: uint(64 - popShift(size)),
	}
	for i := range x.slots {
		x.slots[i] = -1
	}
	return x
}

// popShift returns log2 of the power-of-two size.
func popShift(size int) uint {
	s := uint(0)
	for 1<<s < size {
		s++
	}
	return s
}

// home is the preferred cell for a key (Fibonacci hashing).
//
//m5:hotpath
func (x *tlbIndex) home(v VPN) uint64 {
	return (uint64(v) * 0x9E3779B97F4A7C15) >> x.shift
}

// get returns the slot cached for v, or -1.
//
//m5:hotpath
func (x *tlbIndex) get(v VPN) int32 {
	for i := x.home(v); ; i = (i + 1) & x.mask {
		s := x.slots[i]
		if s < 0 {
			return -1
		}
		if x.keys[i] == v {
			return s
		}
	}
}

// put records v -> slot, overwriting any existing entry for v.
//
//m5:hotpath
func (x *tlbIndex) put(v VPN, slot int32) {
	for i := x.home(v); ; i = (i + 1) & x.mask {
		if x.slots[i] < 0 || x.keys[i] == v {
			x.keys[i], x.slots[i] = v, slot
			return
		}
	}
}

// del removes v's entry if present, backward-shifting the probe chain so
// lookups never need tombstones.
//
//m5:hotpath
func (x *tlbIndex) del(v VPN) {
	i := x.home(v)
	for {
		if x.slots[i] < 0 {
			return
		}
		if x.keys[i] == v {
			break
		}
		i = (i + 1) & x.mask
	}
	// Shift later chain members into the hole when doing so keeps them
	// reachable from their home cell.
	j := i
	for {
		j = (j + 1) & x.mask
		if x.slots[j] < 0 {
			break
		}
		h := x.home(x.keys[j])
		// Entry at j may move into the hole at i only if its home h does
		// not lie in the cyclic range (i, j].
		if (j-h)&x.mask >= (j-i)&x.mask {
			x.keys[i], x.slots[i] = x.keys[j], x.slots[j]
			i = j
		}
	}
	x.slots[i] = -1
}

//m5:hotpath
func (x *tlbIndex) clear() {
	for i := range x.slots {
		x.slots[i] = -1
	}
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
		index:    newTLBIndex(capacity),
		lastSlot: -1,
	}
}

// Lookup probes for the VPN. A hit refreshes the reference bit. The memo
// fast path is kept small enough to inline into the translate loop; the
// index probe lives in lookupSlow.
//
//m5:hotpath
func (t *TLB) Lookup(v VPN) bool {
	if t.lastSlot >= 0 && t.lastVPN == v {
		t.slots[t.lastSlot].referred = true
		t.hits++
		return true
	}
	return t.lookupSlow(v)
}

//m5:hotpath
func (t *TLB) lookupSlow(v VPN) bool {
	if i := t.index.get(v); i >= 0 {
		t.slots[i].referred = true
		t.lastVPN, t.lastSlot = v, i
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
	if t.index.get(v) >= 0 {
		return
	}
	for {
		s := &t.slots[t.hand]
		if !s.valid {
			break
		}
		if !s.referred {
			t.index.del(s.vpn)
			s.valid = false
			if t.lastSlot == int32(t.hand) {
				t.lastSlot = -1
			}
			break
		}
		s.referred = false
		if t.hand++; t.hand == t.capacity {
			t.hand = 0
		}
	}
	t.slots[t.hand] = tlbSlot{vpn: v, valid: true, referred: true}
	t.index.put(v, int32(t.hand))
	t.lastVPN, t.lastSlot = v, int32(t.hand)
	if t.hand++; t.hand == t.capacity {
		t.hand = 0
	}
}

// Invalidate drops the VPN if cached, returning whether it was present.
// This is the per-core half of a TLB shootdown.
func (t *TLB) Invalidate(v VPN) bool {
	i := t.index.get(v)
	if i < 0 {
		return false
	}
	t.slots[i].valid = false
	t.slots[i].referred = false
	t.index.del(v)
	if t.lastSlot == i {
		t.lastSlot = -1
	}
	t.shootdowns++
	return true
}

// Flush empties the TLB (context switch). The index's backing arrays are
// reused, so the frequent context-switch flushes never reallocate.
//
//m5:hotpath
func (t *TLB) Flush() {
	for i := range t.slots {
		t.slots[i] = tlbSlot{}
	}
	t.index.clear()
	t.lastSlot = -1
}

// TLBSnapshot is a deep copy of a TLB's state.
type TLBSnapshot struct {
	slots      []tlbSlot
	hand       int
	hits       uint64
	misses     uint64
	shootdowns uint64
}

// Snapshot deep-copies the TLB state (the index is derivable from the
// slots and rebuilt on restore).
func (t *TLB) Snapshot() TLBSnapshot {
	return TLBSnapshot{
		slots:      append([]tlbSlot(nil), t.slots...),
		hand:       t.hand,
		hits:       t.hits,
		misses:     t.misses,
		shootdowns: t.shootdowns,
	}
}

// Restore rewinds the TLB to a snapshot taken from a same-capacity TLB.
func (t *TLB) Restore(s TLBSnapshot) {
	copy(t.slots, s.slots)
	t.index.clear()
	for i, sl := range t.slots {
		if sl.valid {
			t.index.put(sl.vpn, int32(i))
		}
	}
	t.hand = s.hand
	t.lastSlot = -1
	t.hits = s.hits
	t.misses = s.misses
	t.shootdowns = s.shootdowns
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
