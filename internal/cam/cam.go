// Package cam models the sorted Content Addressable Memory unit of the M5
// top-K tracker (Figure 5): K entries, each a (address tag, access count)
// pair kept ordered by count so the minimum is always known and the top-K
// hot addresses can be reported to M5-manager in a single query.
package cam

import "slices"

// Entry is one CAM row: an address tag and its access-count value.
type Entry struct {
	Addr  uint64
	Count uint64
}

// Sorted is a K-entry sorted CAM. Update implements the Figure 5 control
// flow: on tag hit, overwrite the entry's count with the sketch estimate;
// on miss, replace the minimum entry iff the new count exceeds it.
//
// Entries sit in a slice with an Index from tag to position, and the
// position of the minimum entry is cached, so an observation costs one
// tag probe and at most one compare, as the hardware's does. The cache
// survives every hit that leaves the minimum where it is or moves it to
// the hit entry; only a rise of the minimum entry's own count, a
// replacement of it, an append or a bulk change (Decay, Reset) drops
// it, and the next miss at capacity rescans the K entries.
type Sorted struct {
	k       int
	entries []Entry
	index   Index // tag -> slice position
	minPos  int   // lowest position among the minimum-count entries
	minOK   bool
}

// NewSorted builds an empty CAM with K entries.
func NewSorted(k int) *Sorted {
	if k <= 0 {
		panic("cam: K must be positive")
	}
	return &Sorted{
		k:       k,
		entries: make([]Entry, 0, k),
		index:   NewIndex(k),
	}
}

// K returns the CAM capacity.
func (c *Sorted) K() int { return c.k }

// Len returns the number of occupied entries.
func (c *Sorted) Len() int { return len(c.entries) }

// Update applies one (addr, count) observation and reports whether the
// address is resident in the CAM after it. A resident address takes the
// new count (step 4). Any other address is admitted iff count exceeds
// Min (steps 5 and 6): a CAM below capacity takes any nonzero count, and
// a full one replaces its minimum entry.
//
//m5:hotpath
func (c *Sorted) Update(addr, count uint64) bool {
	if pos, ok := c.index.Get(addr); ok {
		c.setCount(int(pos), count)
		return true
	}
	if len(c.entries) < c.k {
		if count == 0 {
			return false
		}
		c.entries = append(c.entries, Entry{Addr: addr, Count: count})
		c.index.Put(addr, int32(len(c.entries)-1))
		c.minOK = false
		return true
	}
	min := c.min()
	if count <= c.entries[min].Count {
		return false
	}
	c.index.Delete(c.entries[min].Addr)
	c.entries[min] = Entry{Addr: addr, Count: count}
	c.index.Put(addr, int32(min))
	c.minOK = false
	return true
}

// setCount overwrites entry p's count and keeps a valid cached minimum m
// valid: a count that falls below m's, or ties it at a lower position,
// takes the minimum; a rise of m's own count drops the cache; any other
// change leaves m the minimum.
//
//m5:hotpath
func (c *Sorted) setCount(p int, count uint64) {
	old := c.entries[p].Count
	c.entries[p].Count = count
	if !c.minOK {
		return
	}
	switch m := c.minPos; {
	case p == m:
		c.minOK = count <= old
	case count < old:
		if mc := c.entries[m].Count; count < mc || count == mc && p < m {
			c.minPos = p
		}
	}
}

// Min returns the minimum count currently stored, the bar Update holds a
// new address to. A CAM that is not yet full reports 0, so any nonzero
// count is admitted. Min and Contains are observers for tests: the
// tracker leaves both decisions to Update.
func (c *Sorted) Min() uint64 {
	if len(c.entries) < c.k {
		return 0
	}
	return c.entries[c.min()].Count
}

// min returns the cached minimum position, rescanning when it is stale.
//
//m5:hotpath
func (c *Sorted) min() int {
	if c.minOK {
		return c.minPos
	}
	pos := 0
	for i := 1; i < len(c.entries); i++ {
		if c.entries[i].Count < c.entries[pos].Count {
			pos = i
		}
	}
	c.minPos, c.minOK = pos, true
	return pos
}

// Contains reports whether the address is resident.
func (c *Sorted) Contains(addr uint64) bool {
	_, ok := c.index.Get(addr)
	return ok
}

// TopK returns the resident entries in descending count order (ties broken
// by ascending address for determinism). The result is a copy.
func (c *Sorted) TopK() []Entry {
	out := make([]Entry, len(c.entries))
	copy(out, c.entries)
	// The comparator is a total order (count desc, address asc), so the
	// non-stable sort is output-deterministic; slices.SortFunc avoids the
	// reflection overhead of sort.Slice on the per-query path.
	slices.SortFunc(out, func(a, b Entry) int {
		switch {
		case a.Count != b.Count:
			if a.Count > b.Count {
				return -1
			}
			return 1
		case a.Addr < b.Addr:
			return -1
		case a.Addr > b.Addr:
			return 1
		default:
			return 0
		}
	})
	return out
}

// Clone returns an independent copy: entries in slice order, the tag
// index and the cached minimum.
func (c *Sorted) Clone() *Sorted {
	d := *c
	d.entries = append(make([]Entry, 0, c.k), c.entries...)
	d.index = c.index.Clone()
	return &d
}

// Decay halves every resident count (entries reaching zero are evicted),
// the aging alternative to Reset.
func (c *Sorted) Decay() {
	kept := c.entries[:0]
	for _, e := range c.entries {
		if e.Count /= 2; e.Count != 0 {
			kept = append(kept, e)
		}
	}
	c.entries = kept
	c.reindex()
}

// Reset clears the CAM for the next epoch, as done immediately after a
// query is served (§5.1).
func (c *Sorted) Reset() {
	c.entries = c.entries[:0]
	c.reindex()
}

// reindex rebuilds the tag index from the entries and drops the cached
// minimum.
func (c *Sorted) reindex() {
	c.index.Reset()
	for i, e := range c.entries {
		c.index.Put(e.Addr, int32(i))
	}
	c.minOK = false
}
