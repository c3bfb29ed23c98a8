package tiermem

import (
	"fmt"
	"slices"

	"m5/internal/mem"
)

// NodeID identifies a memory tier.
type NodeID int

// The two tiers of the modelled system (Table 2 plus the CXL device).
const (
	// NodeDDR is the fast local DDR DRAM node.
	NodeDDR NodeID = iota
	// NodeCXL is the slow CXL DRAM node (the Agilex-7 device memory).
	NodeCXL
	numNodes
)

// String names the node.
func (n NodeID) String() string {
	switch n {
	case NodeDDR:
		return "ddr"
	case NodeCXL:
		return "cxl"
	default:
		return fmt.Sprintf("NodeID(%d)", int(n))
	}
}

// Other returns the opposite tier.
func (n NodeID) Other() NodeID {
	if n == NodeDDR {
		return NodeCXL
	}
	return NodeDDR
}

// Node is one memory tier: a physical address range, a frame allocator,
// and read/write traffic counters (the inputs to Monitor's bw() and
// nr_pages(), Table 1).
type Node struct {
	id      NodeID
	span    mem.Range
	free    []mem.PFN
	used    uint64
	reads   uint64 // cumulative 64B read accesses served
	writes  uint64 // cumulative 64B write accesses served
	limit   uint64 // cgroup page limit; 0 = unlimited
	limited bool
}

// NewNode builds a tier over a page-aligned physical range.
func NewNode(id NodeID, span mem.Range) *Node {
	if span.Start.PageOffset() != 0 || span.Pages() == 0 {
		panic(fmt.Sprintf("tiermem: node %v span %v must be page-aligned and non-empty", id, span))
	}
	n := &Node{id: id, span: span}
	pages := span.Pages()
	n.free = make([]mem.PFN, pages)
	first := span.FirstPFN()
	// LIFO allocator: populate so the lowest frames are handed out first.
	for i := uint64(0); i < pages; i++ {
		n.free[pages-1-i] = first + mem.PFN(i)
	}
	return n
}

// ID returns the node's identity.
func (n *Node) ID() NodeID { return n.id }

// Span returns the node's physical range.
//
//m5:hotpath
func (n *Node) Span() mem.Range { return n.span }

// TotalPages returns the node capacity in pages.
func (n *Node) TotalPages() uint64 { return n.span.Pages() }

// UsedPages returns the number of allocated pages (Monitor's
// nr_pages(node)).
func (n *Node) UsedPages() uint64 { return n.used }

// FreePages returns the number of allocatable pages, respecting any
// cgroup limit.
func (n *Node) FreePages() uint64 {
	free := uint64(len(n.free))
	if n.limited && n.used+free > n.limit {
		if n.used >= n.limit {
			return 0
		}
		return n.limit - n.used
	}
	return free
}

// SetLimit applies a cgroup-style cap on allocated pages (§6 limits DDR to
// 3GB). A zero limit removes the cap.
func (n *Node) SetLimit(pages uint64) {
	n.limit = pages
	n.limited = pages != 0
}

// Limit returns the configured page limit (0 = none).
func (n *Node) Limit() uint64 {
	if !n.limited {
		return 0
	}
	return n.limit
}

// Alloc takes one free frame. ok=false when the node is exhausted or at
// its cgroup limit.
func (n *Node) Alloc() (mem.PFN, bool) {
	if len(n.free) == 0 || (n.limited && n.used >= n.limit) {
		return 0, false
	}
	f := n.free[len(n.free)-1]
	n.free = n.free[:len(n.free)-1]
	n.used++
	return f, true
}

// Free returns a frame to the allocator.
func (n *Node) Free(f mem.PFN) {
	if !n.span.ContainsPFN(f) {
		panic(fmt.Sprintf("tiermem: freeing frame %v outside node %v", f, n.id))
	}
	n.free = append(n.free, f)
	n.used--
}

// Clone returns an independent copy of the node: its free list, its
// limit and its traffic counters.
func (n *Node) Clone() *Node {
	d := *n
	d.free = slices.Clone(n.free)
	return &d
}

// CountReads records k 64B reads served by this node: 1 per access on
// the exact engine, a batch's weight on the sampled tier.
//
//m5:hotpath
func (n *Node) CountReads(k uint64) { n.reads += k }

// CountWrites records k 64B writes served by this node: 1 per access on
// the exact engine, a batch's weight on the sampled tier.
//
//m5:hotpath
func (n *Node) CountWrites(k uint64) { n.writes += k }

// Reads returns cumulative 64B reads served.
func (n *Node) Reads() uint64 { return n.reads }

// Writes returns cumulative 64B writes served.
func (n *Node) Writes() uint64 { return n.writes }
