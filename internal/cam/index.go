package cam

import "slices"

// Index is a fixed-capacity open-addressed map from an address tag to a
// slot number: the tag-match port of a CAM. The sorted CAM and
// Space-Saving's counter table (an N-entry CAM in hardware) both look
// their tags up through it. The table holds four cells per entry of
// capacity, so linear probe chains stay short. A delete shifts the
// later cells of its probe chain back instead of leaving a tombstone,
// so constant eviction churn never degrades lookups or forces a rebuild.
// Cell layout reaches no output: callers walk their own entries, never
// the index.
type Index struct {
	cells []indexCell
	shift uint // 64 - log2(len(cells)): home takes the product's top bits
	mask  uint64
}

// indexCell keeps a tag beside its slot, so a probe reads one cache line.
type indexCell struct {
	tag  uint64
	slot int32
	used bool
}

// NewIndex builds an empty index for up to capacity live tags.
func NewIndex(capacity int) Index {
	size, bits := 16, uint(4)
	for size < capacity*4 {
		size *= 2
		bits++
	}
	return Index{cells: make([]indexCell, size), shift: 64 - bits, mask: uint64(size - 1)}
}

// Clone returns an independent copy with the same cell layout.
func (x *Index) Clone() Index {
	return Index{cells: slices.Clone(x.cells), shift: x.shift, mask: x.mask}
}

// home is tag's first probe cell (Fibonacci hashing).
//
//m5:hotpath
func (x *Index) home(tag uint64) uint64 {
	return (tag * 0x9e3779b97f4a7c15) >> x.shift
}

// find returns the cell holding tag and whether tag is present.
//
//m5:hotpath
func (x *Index) find(tag uint64) (uint64, bool) {
	for i := x.home(tag); ; i = (i + 1) & x.mask {
		if c := &x.cells[i]; !c.used {
			return i, false
		} else if c.tag == tag {
			return i, true
		}
	}
}

// Get returns tag's slot and whether tag is present.
//
//m5:hotpath
func (x *Index) Get(tag uint64) (int32, bool) {
	i, ok := x.find(tag)
	return x.cells[i].slot, ok
}

// Put inserts a tag known to be absent.
//
//m5:hotpath
func (x *Index) Put(tag uint64, slot int32) {
	i := x.home(tag)
	for x.cells[i].used {
		i = (i + 1) & x.mask
	}
	x.cells[i] = indexCell{tag: tag, slot: slot, used: true}
}

// Delete removes tag if present. Each later cell of the probe chain moves
// back into the hole when the hole lies on its own path from its home,
// so every remaining tag stays reachable without tombstones.
//
//m5:hotpath
func (x *Index) Delete(tag uint64) {
	i, ok := x.find(tag)
	if !ok {
		return
	}
	for j := (i + 1) & x.mask; x.cells[j].used; j = (j + 1) & x.mask {
		if (j-i)&x.mask <= (j-x.home(x.cells[j].tag))&x.mask {
			x.cells[i] = x.cells[j]
			i = j
		}
	}
	x.cells[i] = indexCell{}
}

// Reset empties the index.
func (x *Index) Reset() { clear(x.cells) }
