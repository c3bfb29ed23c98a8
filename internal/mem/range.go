package mem

import "fmt"

// Range is a half-open physical address range [Start, End). PAC and WAC use
// ranges to limit the monitored region (§3 "Scalability"); the tiered-memory
// model uses them to describe each NUMA node's physical span.
type Range struct {
	Start PhysAddr
	End   PhysAddr
}

// NewRange builds a range from a start address and a size in bytes.
func NewRange(start PhysAddr, size uint64) Range {
	return Range{Start: start, End: start + PhysAddr(size)}
}

// Size returns the range length in bytes.
func (r Range) Size() uint64 {
	if r.End <= r.Start {
		return 0
	}
	return uint64(r.End - r.Start)
}

// Contains reports whether the address falls inside the range.
//
//m5:hotpath
func (r Range) Contains(a PhysAddr) bool { return a >= r.Start && a < r.End }

// ContainsPFN reports whether the whole page frame falls inside the range.
func (r Range) ContainsPFN(p PFN) bool {
	return r.Contains(p.Addr()) && r.Contains(p.Addr()+PageSize-1)
}

// Pages returns the number of whole 4KB pages covered by the range.
func (r Range) Pages() uint64 { return r.Size() / PageSize }

// Words returns the number of whole 64B words covered by the range.
func (r Range) Words() uint64 { return r.Size() / WordSize }

// FirstPFN returns the PFN of the first page in the range. The range start
// must be page-aligned for the result to name a fully contained page.
func (r Range) FirstPFN() PFN { return r.Start.Page() }

// Overlaps reports whether two ranges share any address.
func (r Range) Overlaps(o Range) bool { return r.Start < o.End && o.Start < r.End }

// Intersect returns the overlapping part of two ranges (possibly empty).
func (r Range) Intersect(o Range) Range {
	out := Range{Start: maxAddr(r.Start, o.Start), End: minAddr(r.End, o.End)}
	if out.End < out.Start {
		out.End = out.Start
	}
	return out
}

// String formats the range as [start, end).
func (r Range) String() string {
	return fmt.Sprintf("[%s, %s)", r.Start, r.End)
}

func maxAddr(a, b PhysAddr) PhysAddr {
	if a > b {
		return a
	}
	return b
}

func minAddr(a, b PhysAddr) PhysAddr {
	if a < b {
		return a
	}
	return b
}
