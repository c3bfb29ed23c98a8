package tiermem

import (
	"fmt"
	"sort"

	"m5/internal/mem"
)

// Huge-page support (§8): workloads may map 2MB huge pages, which migrate
// as 512-frame units. A huge mapping occupies 512 consecutive VPNs backed
// by 512 physically contiguous frames; the first VPN is the head. Hugeness
// changes the migration economics the paper discusses: one TLB shootdown
// and one bulk copy move 2MB, but sparse and dense words travel together.

// ErrHugeMember is returned when a 4KB operation targets a page inside a
// huge mapping; the unit must be migrated via MigrateHuge (the model does
// not split huge pages, as THP splitting is exactly the cost the paper's
// §8 wants to avoid).
var ErrHugeMember = fmt.Errorf("tiermem: page belongs to a huge mapping")

// AllocContig takes n physically consecutive frames from the node,
// returning the first. It fails when no such run exists — fragmentation
// permitting huge allocation only early in a run is faithful to real
// kernels.
func (n *Node) AllocContig(count int) (mem.PFN, bool) {
	if count <= 0 {
		return 0, false
	}
	if n.limited && n.used+uint64(count) > n.limit {
		return 0, false
	}
	if len(n.free) < count {
		return 0, false
	}
	frames := make([]mem.PFN, len(n.free))
	copy(frames, n.free)
	sort.Slice(frames, func(i, j int) bool { return frames[i] < frames[j] })
	runStart := 0
	for i := 1; i <= len(frames); i++ {
		if i < len(frames) && frames[i] == frames[i-1]+1 {
			if i-runStart+1 >= count {
				return n.takeRun(frames[runStart : runStart+count])
			}
			continue
		}
		if i-runStart >= count {
			return n.takeRun(frames[runStart : runStart+count])
		}
		runStart = i
	}
	return 0, false
}

// takeRun removes the given frames from the free list and returns the run
// head.
func (n *Node) takeRun(run []mem.PFN) (mem.PFN, bool) {
	take := make(map[mem.PFN]bool, len(run))
	for _, f := range run {
		take[f] = true
	}
	kept := n.free[:0]
	for _, f := range n.free {
		if !take[f] {
			kept = append(kept, f)
		}
	}
	n.free = kept
	n.used += uint64(len(run))
	return run[0], true
}

// FreeContig returns a frame run to the allocator.
func (n *Node) FreeContig(head mem.PFN, count int) {
	for i := 0; i < count; i++ {
		n.Free(head + mem.PFN(i))
	}
}

// AllocHuge maps nHuge 2MB huge pages on the node and returns the first
// VPN (a multiple of 512 pages of fresh table space).
func (s *System) AllocHuge(nHuge int, node NodeID) (VPN, error) {
	nd := s.nodes[node]
	first := s.extend(nHuge * mem.PagesPerHugePage)
	for h := 0; h < nHuge; h++ {
		headFrame, ok := nd.AllocContig(mem.PagesPerHugePage)
		if !ok {
			return 0, fmt.Errorf("%w: no contiguous run for huge page %d on %v",
				ErrNoMemory, h, node)
		}
		headVPN := first + VPN(h*mem.PagesPerHugePage)
		for i := 0; i < mem.PagesPerHugePage; i++ {
			*s.pt.Get(headVPN + VPN(i)) = PTE{
				Frame:    headFrame + mem.PFN(i),
				Node:     node,
				Valid:    true,
				Present:  true,
				Gen:      s.lru.Epoch(),
				HugeHead: i == 0,
				HugePart: true,
			}
		}
	}
	return first, nil
}

// HugeHeadOf returns the head VPN of the huge mapping containing v, or
// ok=false when v is a base 4KB mapping.
func (s *System) HugeHeadOf(v VPN) (VPN, bool) {
	pte, ok := s.pt.Lookup(v)
	if !ok || !pte.HugePart {
		return 0, false
	}
	// Heads sit at 512-VPN strides from the mapping start; walk back to
	// the nearest head.
	for back := VPN(0); back < mem.PagesPerHugePage; back++ {
		if p, ok := s.pt.Lookup(v - back); ok && p.HugeHead {
			return v - back, true
		}
	}
	return 0, false
}

// MigrateHuge moves a whole 2MB mapping to the target node: one contiguous
// frame run, one remap of 512 entries, one shootdown sweep, and the bulk
// migration cost (MigrateHugePageNs, far below 512 single-page
// migrations — a 2MB copy is bandwidth-bound while 512 migrate_pages()
// calls are overhead-bound).
func (s *System) MigrateHuge(head VPN, to NodeID) error {
	pte := s.pt.Get(head)
	if !pte.Valid || !pte.HugeHead {
		return fmt.Errorf("tiermem: VPN %d is not a huge-page head", head)
	}
	if pte.Pinned {
		s.rejected++
		return ErrPinned
	}
	if pte.Node == to {
		return nil
	}
	src := pte.Node
	oldHead := pte.Frame
	newHead, ok := s.nodes[to].AllocContig(mem.PagesPerHugePage)
	if !ok {
		s.rejected++
		return fmt.Errorf("%w: no contiguous run on %v", ErrNoMemory, to)
	}
	for i := 0; i < mem.PagesPerHugePage; i++ {
		p := s.pt.Get(head + VPN(i))
		p.Frame = newHead + mem.PFN(i)
		p.Node = to
		s.shootdown(head + VPN(i))
	}
	s.nodes[src].FreeContig(oldHead, mem.PagesPerHugePage)
	s.kernelNs += s.costs.MigrateHugePageNs
	if to == NodeDDR {
		s.promotions += mem.PagesPerHugePage
	} else {
		s.demotions += mem.PagesPerHugePage
	}
	return nil
}

// PromoteHuge promotes a huge mapping to DDR, demoting MGLRU-cold DDR
// content (whole huge units or 512 base pages) to make room under the
// cgroup limit.
func (s *System) PromoteHuge(head VPN) error {
	pte := s.pt.Get(head)
	if !pte.Valid || !pte.HugeHead {
		return fmt.Errorf("tiermem: VPN %d is not a huge-page head", head)
	}
	if pte.Node == NodeDDR {
		return nil
	}
	ddr := s.nodes[NodeDDR]
	if ddr.FreePages() < mem.PagesPerHugePage {
		need := mem.PagesPerHugePage - int(ddr.FreePages())
		victims := s.lru.DemoteCandidates(NodeDDR, need)
		demoted := 0
		seen := make(map[VPN]bool)
		for _, v := range victims {
			if demoted >= need {
				break
			}
			if h, ok := s.HugeHeadOf(v); ok {
				if seen[h] {
					continue
				}
				seen[h] = true
				if err := s.MigrateHuge(h, NodeCXL); err == nil {
					demoted += mem.PagesPerHugePage
				}
				continue
			}
			if err := s.Migrate(v, NodeCXL); err == nil {
				demoted++
			}
		}
		if ddr.FreePages() < mem.PagesPerHugePage {
			s.rejected++
			return fmt.Errorf("%w: could not free a contiguous huge run", ErrNoMemory)
		}
	}
	return s.MigrateHuge(head, NodeDDR)
}
