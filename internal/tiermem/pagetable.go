package tiermem

import (
	"fmt"

	"m5/internal/mem"
)

// VirtAddr is a byte-granularity virtual address.
type VirtAddr uint64

// VPN is a virtual page number.
type VPN uint64

// Page returns the VPN containing the address.
//
//m5:hotpath
func (a VirtAddr) Page() VPN { return VPN(a >> mem.PageShift) }

// Offset returns the byte offset within the page.
//
//m5:hotpath
func (a VirtAddr) Offset() uint64 { return uint64(a) & (mem.PageSize - 1) }

// Addr returns the first byte address of the virtual page.
//
//m5:hotpath
func (p VPN) Addr() VirtAddr { return VirtAddr(p) << mem.PageShift }

// PTE is one page-table entry. The Present and Accessed bits are the
// architectural state the CPU-driven solutions manipulate: ANB clears
// Present to force hinting faults; DAMON polls and clears Accessed.
type PTE struct {
	Frame mem.PFN
	Node  NodeID
	// Valid marks the entry as mapped at all (allocation exists).
	Valid bool
	// Present mirrors the x86 present bit; cleared by ANB's sampling to
	// provoke a hinting page fault on next access.
	Present bool
	// Accessed mirrors the x86 accessed bit, set by page walks (TLB
	// misses) and polled/cleared by DAMON-style scanners.
	Accessed bool
	// Pinned pages are refused by Promoter (DMA-pinned or node-bound).
	Pinned bool
	// Gen is the MGLRU generation stamp: the aging epoch in which the
	// page's accessed bit was last observed set.
	Gen uint64
	// HugePart marks the entry as belonging to a 2MB huge mapping;
	// HugeHead marks its first entry. Huge mappings migrate as units via
	// MigrateHuge (§8 extension).
	HugePart bool
	HugeHead bool
}

// PageTable is a flat page table over one contiguous virtual region
// starting at VPN 0. Flatness is an implementation choice, not a model
// restriction: workloads allocate contiguous arenas.
type PageTable struct {
	entries []PTE
}

// NewPageTable returns an empty table.
func NewPageTable() *PageTable { return &PageTable{} }

// Extend grows the table by n entries and returns the first new VPN.
func (pt *PageTable) Extend(n int) VPN {
	first := VPN(len(pt.entries))
	pt.entries = append(pt.entries, make([]PTE, n)...)
	return first
}

// Len returns the number of entries.
func (pt *PageTable) Len() int { return len(pt.entries) }

// Get returns a pointer to the PTE for in-place updates; it panics on an
// out-of-range VPN (a wild access — a bug in the caller).
//
//m5:hotpath
func (pt *PageTable) Get(v VPN) *PTE {
	if uint64(v) >= uint64(len(pt.entries)) {
		//m5:coldpath wild-access guard; formatting happens only while dying.
		panic(fmt.Sprintf("tiermem: VPN %d beyond page table (%d entries)", v, len(pt.entries)))
	}
	return &pt.entries[v]
}

// Lookup returns the PTE value and whether the VPN is within the table.
func (pt *PageTable) Lookup(v VPN) (PTE, bool) {
	if uint64(v) >= uint64(len(pt.entries)) {
		return PTE{}, false
	}
	return pt.entries[v], true
}

// ForEach visits every entry in VPN order. The visitor may mutate the PTE
// through the pointer. Returning false stops the walk.
func (pt *PageTable) ForEach(f func(VPN, *PTE) bool) {
	for i := range pt.entries {
		if !f(VPN(i), &pt.entries[i]) {
			return
		}
	}
}
