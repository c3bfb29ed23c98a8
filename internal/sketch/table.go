package sketch

import "slices"

// CountTable is an open-addressed uint64→uint64 counter table with linear
// probing, the allocation-free replacement for the map-backed spill and
// count paths on the simulator's access hot paths. Unlike a Go map,
// steady-state Inc/Get/Dec perform zero allocations, and iteration order
// (slot order) is a deterministic function of the insertion history, so
// algorithms that consume randomness while iterating (StickySampling's
// rescale) stay reproducible.
//
// Deletions happen only through Filter/Reset, which rebuild into a spare
// array pair and swap — O(capacity) but allocation-free after the table
// reaches its high-water capacity.
type CountTable struct {
	keys []uint64
	vals []uint64
	used []bool
	mask uint64
	n    int
	// spare holds the previous generation's arrays for Filter/grow to
	// rebuild into without allocating.
	spareKeys []uint64
	spareVals []uint64
	spareUsed []bool
}

// NewCountTable builds a table pre-sized for about hint live keys.
func NewCountTable(hint int) *CountTable {
	cap := 16
	for cap < hint*2 {
		cap *= 2
	}
	t := &CountTable{}
	t.alloc(cap)
	return t
}

func (t *CountTable) alloc(capacity int) {
	t.keys = make([]uint64, capacity)
	t.vals = make([]uint64, capacity)
	t.used = make([]bool, capacity)
	t.mask = uint64(capacity - 1)
	t.n = 0
}

// Len returns the number of live keys.
//
//m5:hotpath
func (t *CountTable) Len() int { return t.n }

// slot returns the slot index holding key, or the empty slot where it
// would be inserted.
//
//m5:hotpath
func (t *CountTable) slot(key uint64) int {
	i := splitmix64(key) & t.mask
	for t.used[i] && t.keys[i] != key {
		i = (i + 1) & t.mask
	}
	return int(i)
}

// Get returns the count for key (0 when absent).
//
//m5:hotpath
func (t *CountTable) Get(key uint64) uint64 {
	i := t.slot(key)
	if !t.used[i] {
		return 0
	}
	return t.vals[i]
}

// Inc adds delta to key's count, inserting it if absent, and returns the
// new count. Amortized allocation-free: the backing arrays only grow when
// occupancy passes 3/4, and the spare generation is reused thereafter.
//
//m5:hotpath
func (t *CountTable) Inc(key, delta uint64) uint64 {
	i := t.slot(key)
	if !t.used[i] {
		t.used[i] = true
		t.keys[i] = key
		t.vals[i] = 0
		t.n++
		if uint64(t.n)*4 > (t.mask+1)*3 {
			//m5:coldpath amortized growth past 3/4 occupancy.
			t.grow()
			i = t.slot(key)
		}
	}
	t.vals[i] += delta
	return t.vals[i]
}

// Set stores an exact count for key, inserting it if absent. Setting 0
// stores a live zero (use Filter to drop entries).
//
//m5:hotpath
func (t *CountTable) Set(key, val uint64) {
	i := t.slot(key)
	if !t.used[i] {
		t.used[i] = true
		t.keys[i] = key
		t.n++
		if uint64(t.n)*4 > (t.mask+1)*3 {
			//m5:coldpath amortized growth past 3/4 occupancy.
			t.grow()
			i = t.slot(key)
		}
	}
	t.vals[i] = val
}

func (t *CountTable) grow() {
	oldKeys, oldVals, oldUsed := t.keys, t.vals, t.used
	t.alloc(len(oldKeys) * 2)
	t.spareKeys, t.spareVals, t.spareUsed = nil, nil, nil
	for i, u := range oldUsed {
		if u {
			j := t.slot(oldKeys[i])
			t.used[j] = true
			t.keys[j] = oldKeys[i]
			t.vals[j] = oldVals[i]
			t.n++
		}
	}
}

// Range calls f for every live (key, count) pair in slot order until f
// returns false. The table must not be mutated during iteration.
func (t *CountTable) Range(f func(key, val uint64) bool) {
	for i, u := range t.used {
		if u && !f(t.keys[i], t.vals[i]) {
			return
		}
	}
}

// Filter rewrites every entry: for each live pair, f returns the new
// count and whether to keep the entry. Entries are revisited in slot
// order and rebuilt into the spare generation, so the operation is
// allocation-free once the table has warmed up.
//
//m5:hotpath
func (t *CountTable) Filter(f func(key, val uint64) (uint64, bool)) {
	//m5:coldpath first Filter after construction or growth builds the
	// spare generation; steady-state calls reuse it allocation-free.
	if t.spareKeys == nil || len(t.spareKeys) != len(t.keys) {
		t.spareKeys = make([]uint64, len(t.keys))
		t.spareVals = make([]uint64, len(t.vals))
		t.spareUsed = make([]bool, len(t.used))
	}
	oldKeys, oldVals, oldUsed := t.keys, t.vals, t.used
	t.keys, t.vals, t.used = t.spareKeys, t.spareVals, t.spareUsed
	t.spareKeys, t.spareVals, t.spareUsed = oldKeys, oldVals, oldUsed
	t.n = 0
	for i, u := range oldUsed {
		if !u {
			continue
		}
		oldUsed[i] = false // leave the spare generation clean for reuse
		if v, keep := f(oldKeys[i], oldVals[i]); keep {
			j := t.slot(oldKeys[i])
			t.used[j] = true
			t.keys[j] = oldKeys[i]
			t.vals[j] = v
			t.n++
		}
	}
}

// Clone returns an independent copy of the live generation. The spare
// generation is rebuild scratch and carries no entries, so the clone's
// first Filter builds its own.
func (t *CountTable) Clone() *CountTable {
	return &CountTable{
		keys: slices.Clone(t.keys),
		vals: slices.Clone(t.vals),
		used: slices.Clone(t.used),
		mask: t.mask,
		n:    t.n,
	}
}

// Reset drops every entry, keeping capacity.
func (t *CountTable) Reset() {
	for i := range t.used {
		t.used[i] = false
	}
	t.n = 0
}

// Counts materializes the table as a map, for callers that want the
// ergonomic (non-hot-path) view.
func (t *CountTable) Counts() map[uint64]uint64 {
	out := make(map[uint64]uint64, t.n)
	t.Range(func(k, v uint64) bool {
		out[k] = v
		return true
	})
	return out
}
