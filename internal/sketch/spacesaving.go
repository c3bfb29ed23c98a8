package sketch

import (
	"slices"

	"m5/internal/cam"
)

// SpaceSaving is the counter-based top-K algorithm of Metwally et al.,
// the Mithril-style alternative the paper compares against (§5.1, §7.1).
// It maintains at most N (key, count, error) entries. A key not present
// when all entries are occupied evicts the minimum-count entry and
// inherits its count (+1), recording the inherited count as error.
//
// In hardware this is an N-entry sorted CAM, which is why the synthesis in
// Table 4 limits N to 50 (FPGA) / 2K (7nm ASIC) at 400MHz.
//
// Entries live in a fixed arena allocated at construction, and the
// key→entry lookup is the CAM's fixed-capacity tag index (cam.Index), so
// the AddN path performs zero allocations even under steady-state
// eviction churn (one delete + one insert per miss).
type SpaceSaving struct {
	capacity int
	pool     []ssEntry // fixed arena; heap entries point into it
	entries  ssHeap
	index    cam.Index // key -> pool slot
	used     int       // pool slots handed out
}

type ssEntry struct {
	key   uint64
	count uint64
	err   uint64
	pos   int   // heap position, maintained by ssHeap.Swap
	slot  int32 // pool slot, stable across heap swaps
}

// NewSpaceSaving builds a Space-Saving counter with capacity N.
func NewSpaceSaving(n int) *SpaceSaving {
	if n <= 0 {
		panic("sketch: SpaceSaving capacity must be positive")
	}
	s := &SpaceSaving{
		capacity: n,
		pool:     make([]ssEntry, n),
		entries:  make(ssHeap, 0, n),
		index:    cam.NewIndex(n),
	}
	return s
}

// AddN implements Counter: one table operation in place of n sequential
// unit adds. After the first occurrence the key is tracked, so the
// remaining n-1 are plain increments on the same entry; a tracked key
// gains n, a newcomer starts at n, and an evicting newcomer inherits
// min+n with error=min — the sequential counts. Each increment can only
// sift the entry down, along a path its own count does not choose, so
// one fix at the final count leaves the heap as n-1 unit fixes would.
//
//m5:hotpath
func (s *SpaceSaving) AddN(key uint64, n uint64) uint64 {
	if n == 0 {
		//m5:coldpath degenerate zero-weight add: a pure query.
		return s.Estimate(key)
	}
	if slot, ok := s.index.Get(key); ok {
		e := &s.pool[slot]
		e.count += n
		s.entries.fix(e.pos)
		return e.count
	}
	if len(s.entries) < s.capacity {
		// Push at 1, where the first unit add enters, then raise.
		e := &s.pool[s.used]
		*e = ssEntry{key: key, count: 1, slot: int32(s.used)}
		s.used++
		s.entries.push(e)
		s.index.Put(key, e.slot)
		if n > 1 {
			e.count = n
			s.entries.fix(e.pos)
		}
		return n
	}
	// Evict the minimum entry; the newcomer inherits min+n with error=min.
	min := s.entries[0]
	s.index.Delete(min.key)
	min.err = min.count
	min.count += n
	min.key = key
	s.index.Put(key, min.slot)
	s.entries.fix(0)
	return min.count
}

// Estimate implements Counter. Keys not tracked estimate to 0, matching the
// CAM-miss behaviour of the hardware variant.
func (s *SpaceSaving) Estimate(key uint64) uint64 {
	if slot, ok := s.index.Get(key); ok {
		return s.pool[slot].count
	}
	return 0
}

// Error returns the overestimation error recorded for a tracked key, and
// whether the key is currently tracked.
func (s *SpaceSaving) Error(key uint64) (uint64, bool) {
	if slot, ok := s.index.Get(key); ok {
		return s.pool[slot].err, true
	}
	return 0, false
}

// Reset implements Counter.
func (s *SpaceSaving) Reset() {
	s.index.Reset()
	s.entries = s.entries[:0]
	s.used = 0
}

// Entries implements Counter.
func (s *SpaceSaving) Entries() int { return s.capacity }

// Clone implements Counter: the arena, the heap's layout over it and the
// tag index, so the clone breaks ties as the original would.
func (s *SpaceSaving) Clone() Counter {
	c := &SpaceSaving{
		capacity: s.capacity,
		pool:     slices.Clone(s.pool),
		entries:  make(ssHeap, len(s.entries), s.capacity),
		index:    s.index.Clone(),
		used:     s.used,
	}
	for i := range c.pool[:c.used] {
		c.entries[c.pool[i].pos] = &c.pool[i]
	}
	return c
}

// Tracked returns the number of keys currently tracked.
func (s *SpaceSaving) Tracked() int { return len(s.entries) }

// Top returns the k highest-count (key, count) pairs in SortKeyCounts'
// order: descending count, ties by ascending key. k may exceed the
// tracked count; k <= 0 yields an empty slice. The order is total over
// the table's distinct keys, so the k best are one fixed set: one pass
// keeps them in a bounded heap rooted at the worst kept pair, and only
// those k are sorted — O(N log k) per query instead of a full sort.
func (s *SpaceSaving) Top(k int) []KeyCount {
	live := s.pool[:s.used] // every handed-out slot holds a tracked key
	k = min(k, len(live))
	if k <= 0 {
		return []KeyCount{}
	}
	out := make([]KeyCount, k)
	for i, e := range live[:k] {
		out[i] = KeyCount{Key: e.key, Count: e.count}
	}
	if k < len(live) {
		for i := k/2 - 1; i >= 0; i-- {
			siftWorst(out, i)
		}
		for _, e := range live[k:] {
			if kc := (KeyCount{Key: e.key, Count: e.count}); ranksBefore(kc, out[0]) {
				out[0] = kc
				siftWorst(out, 0)
			}
		}
	}
	SortKeyCounts(out)
	return out
}

// ranksBefore reports whether a precedes b in SortKeyCounts' order.
func ranksBefore(a, b KeyCount) bool {
	return a.Count > b.Count || a.Count == b.Count && a.Key < b.Key
}

// siftWorst restores the heap below i in a heap that keeps the
// lowest-ranked pair at the root.
func siftWorst(h []KeyCount, i int) {
	for {
		j := 2*i + 1
		if j >= len(h) {
			return
		}
		if j+1 < len(h) && ranksBefore(h[j], h[j+1]) {
			j++
		}
		if !ranksBefore(h[i], h[j]) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// KeyCount pairs a key with its (estimated) count.
type KeyCount struct {
	Key   uint64
	Count uint64
}

// SortKeyCounts sorts in place, descending by count with ties broken by
// ascending key for determinism. The comparator is a total order, so the
// non-stable sort is output-deterministic; slices.SortFunc avoids the
// reflection overhead of sort.Slice on the harness scoring paths.
func SortKeyCounts(kc []KeyCount) {
	slices.SortFunc(kc, func(a, b KeyCount) int {
		switch {
		case a.Count != b.Count:
			if a.Count > b.Count {
				return -1
			}
			return 1
		case a.Key < b.Key:
			return -1
		case a.Key > b.Key:
			return 1
		default:
			return 0
		}
	})
}

// ssHeap is a min-heap over counts. fix, push, up and down are
// container/heap's Fix, Push, up and down specialised to this type: the
// same comparisons and swaps in the same order, so a tied minimum evicts
// the entry the interface-driven heap would, without its dynamic calls.
type ssHeap []*ssEntry

//m5:hotpath
func (h ssHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].pos = i
	h[j].pos = j
}

// fix re-establishes the heap order after entry i's count changed.
//
//m5:hotpath
func (h ssHeap) fix(i int) {
	if !h.down(i) {
		h.up(i)
	}
}

// push appends e (capacity is preallocated) and sifts it up.
//
//m5:hotpath
func (h *ssHeap) push(e *ssEntry) {
	e.pos = len(*h)
	*h = append(*h, e)
	h.up(e.pos)
}

//m5:hotpath
func (h ssHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || h[j].count >= h[i].count {
			break
		}
		h.swap(i, j)
		j = i
	}
}

// down sifts entry i0 toward the leaves and reports whether it moved.
//
//m5:hotpath
func (h ssHeap) down(i0 int) bool {
	n := len(h)
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h[j2].count < h[j1].count {
			j = j2 // right child
		}
		if h[j].count >= h[i].count {
			break
		}
		h.swap(i, j)
		i = j
	}
	return i > i0
}
