package tiermem

import (
	"errors"
	"fmt"
	"slices"

	"m5/internal/mem"
	"m5/internal/obs"
)

// Config sizes a tiered-memory system.
type Config struct {
	// DDRPages and CXLPages are the tier capacities in 4KB pages.
	DDRPages uint64
	CXLPages uint64
	// DDRLimitPages is the cgroup cap on DDR pages a workload may hold
	// (the paper limits DDR to 3GB so ~50% of the footprint fits, §6).
	// Zero means no cap.
	DDRLimitPages uint64
	// Cores is the number of CPU cores (one TLB each).
	Cores int
	// TLBEntries sizes each core's TLB (default 1536).
	TLBEntries int
	// Metrics, when non-nil, receives the system's migration and fault
	// counters (promotions, demotions, mglru_demotions, rejected, faults,
	// walks, shootdowns). Handles are interned at NewSystem; disabled
	// costs one nil check per update site.
	Metrics *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Cores == 0 {
		c.Cores = 1
	}
	return c
}

// System is the tiered-memory machine: two memory nodes, a page table,
// per-core TLBs, and MGLRU aging, plus kernel CPU-time accounting so the
// cost of identifying and migrating hot pages is visible (§4.2).
type System struct {
	nodes [numNodes]*Node
	pt    *PageTable
	tlbs  []*TLB
	lru   *MGLRU
	costs CostModel

	faultHook func(core int, v VPN)

	kernelNs   uint64 // CPU ns consumed by kernel mm work
	faults     uint64
	walks      uint64
	promotions uint64
	demotions  uint64
	rejected   uint64 // migrations refused (pinned or full target)
	shootdowns uint64 // TLB shootdown broadcasts issued

	obsPromotions *obs.Counter
	obsDemotions  *obs.Counter
	obsMGLRU      *obs.Counter
	obsRejected   *obs.Counter
	obsFaults     *obs.Counter
	obsWalks      *obs.Counter
	obsShootdowns *obs.Counter
}

// ErrNoMemory is returned when the target node cannot supply a frame.
var ErrNoMemory = errors.New("tiermem: target node out of pages")

// ErrPinned is returned when migrating a pinned page is refused.
var ErrPinned = errors.New("tiermem: page is pinned")

// NewSystem builds the machine. DDR occupies the bottom of the physical
// space; CXL is mapped above it, as on the paper's platform where the CXL
// device appears as a CPU-less NUMA node.
func NewSystem(cfg Config) *System {
	cfg = cfg.withDefaults()
	if cfg.DDRPages == 0 || cfg.CXLPages == 0 {
		panic("tiermem: both tiers need capacity")
	}
	ddrSpan := mem.NewRange(0, cfg.DDRPages*mem.PageSize)
	cxlSpan := mem.NewRange(ddrSpan.End, cfg.CXLPages*mem.PageSize)
	s := &System{
		pt:    NewPageTable(),
		costs: DefaultCosts(),
	}
	s.nodes[NodeDDR] = NewNode(NodeDDR, ddrSpan)
	s.nodes[NodeCXL] = NewNode(NodeCXL, cxlSpan)
	if cfg.DDRLimitPages != 0 {
		s.nodes[NodeDDR].SetLimit(cfg.DDRLimitPages)
	}
	s.lru = NewMGLRU(s.pt)
	s.tlbs = make([]*TLB, cfg.Cores)
	for i := range s.tlbs {
		s.tlbs[i] = NewTLB(cfg.TLBEntries)
	}
	s.obsPromotions = cfg.Metrics.Counter("promotions")
	s.obsDemotions = cfg.Metrics.Counter("demotions")
	s.obsMGLRU = cfg.Metrics.Counter("mglru_demotions")
	s.obsRejected = cfg.Metrics.Counter("rejected")
	s.obsFaults = cfg.Metrics.Counter("faults")
	s.obsWalks = cfg.Metrics.Counter("walks")
	s.obsShootdowns = cfg.Metrics.Counter("shootdowns")
	return s
}

// Clone returns an independent copy of the machine: nodes, page table,
// TLBs with their indexes, the MGLRU epoch (the clone's MGLRU ages the
// copied table), and the kernel-time and migration counters. The fault
// hook is wiring and the metrics handles count into the original's
// registry, so the clone has neither; its owner installs its own policy.
func (s *System) Clone() *System {
	c := &System{
		pt:         &PageTable{entries: slices.Clone(s.pt.entries)},
		tlbs:       make([]*TLB, len(s.tlbs)),
		costs:      s.costs,
		kernelNs:   s.kernelNs,
		faults:     s.faults,
		walks:      s.walks,
		promotions: s.promotions,
		demotions:  s.demotions,
		rejected:   s.rejected,
		shootdowns: s.shootdowns,
	}
	for i, n := range s.nodes {
		c.nodes[i] = n.Clone()
	}
	c.lru = &MGLRU{pt: c.pt, epoch: s.lru.epoch}
	for i, t := range s.tlbs {
		c.tlbs[i] = t.Clone()
	}
	return c
}

// Node returns a tier.
//
//m5:hotpath
func (s *System) Node(id NodeID) *Node { return s.nodes[id] }

// PageTable exposes the page table (scanners need it).
func (s *System) PageTable() *PageTable { return s.pt }

// MGLRU exposes the aging state.
func (s *System) MGLRU() *MGLRU { return s.lru }

// Costs returns the cost model in force: DefaultCosts.
func (s *System) Costs() CostModel { return s.costs }

// Cores returns the core count.
func (s *System) Cores() int { return len(s.tlbs) }

// TLB returns core i's TLB.
//
//m5:hotpath
func (s *System) TLB(core int) *TLB { return s.tlbs[core] }

// CXLSpan returns the CXL node's physical range (what PAC/HPT monitor).
func (s *System) CXLSpan() mem.Range { return s.nodes[NodeCXL].Span() }

// OnFault registers a hook invoked on every soft (hinting) page fault,
// before the page is made present again. ANB uses this to learn which
// sampled pages were touched.
func (s *System) OnFault(hook func(core int, v VPN)) { s.faultHook = hook }

// Alloc maps n contiguous virtual pages onto frames of the given node and
// returns the first VPN. Allocation itself is not time-charged: the
// evaluation starts after warm-up with all pages resident (§7.2).
func (s *System) Alloc(n int, node NodeID) (VPN, error) {
	nd := s.nodes[node]
	if nd.FreePages() < uint64(n) {
		return 0, fmt.Errorf("%w: need %d pages on %v, have %d", ErrNoMemory, n, node, nd.FreePages())
	}
	first := s.extend(n)
	for i := 0; i < n; i++ {
		f, ok := nd.Alloc()
		if !ok {
			panic("tiermem: allocator lied about free pages")
		}
		*s.pt.Get(first + VPN(i)) = PTE{
			Frame:   f,
			Node:    node,
			Valid:   true,
			Present: true,
			Gen:     s.lru.Epoch(),
		}
	}
	return first, nil
}

// extend grows the page table by n entries, and every core's TLB index
// with it, and returns the first new VPN.
func (s *System) extend(n int) VPN {
	first := s.pt.Extend(n)
	for _, t := range s.tlbs {
		t.reserve(s.pt.Len())
	}
	return first
}

// TranslateResult reports what one address translation cost.
type TranslateResult struct {
	Phys    mem.PhysAddr
	Node    NodeID
	TLBMiss bool
	Fault   bool
	// ExtraNs is the page-walk latency added on this access. Fault
	// handling (and any work the fault hook performs) is charged through
	// the system's kernel clock instead, so the simulator bills it to
	// the core exactly once.
	ExtraNs uint64
}

// Translate resolves a virtual address on a core, modelling the TLB, the
// accessed bit, and hinting page faults. It panics on an unmapped VPN
// (a workload bug).
func (s *System) Translate(core int, va VirtAddr, write bool) TranslateResult {
	var res TranslateResult
	s.TranslateInto(core, va, write, &res)
	return res
}

// TranslateInto is Translate writing through an out-parameter — the form
// the simulator's per-access loop uses, where the result struct copy on
// every return is measurable.
//
//m5:hotpath
func (s *System) TranslateInto(core int, va VirtAddr, write bool, res *TranslateResult) {
	v := va.Page()
	pte := s.pt.Get(v)
	if !pte.Valid {
		//m5:coldpath workload-bug guard; formatting happens only while dying.
		panic(fmt.Sprintf("tiermem: access to unallocated VPN %d", v))
	}
	*res = TranslateResult{}
	tlb := s.tlbs[core]
	if !tlb.Lookup(v) {
		res.TLBMiss = true
		res.ExtraNs += s.costs.TLBMissNs
		s.walks++
		s.obsWalks.Inc()
		if !pte.Present {
			// Hinting page fault (ANB's signal): the kernel handles the
			// fault, notifies the sampler, and restores the mapping. The
			// fault cost — and whatever the handler does, including an
			// ANB-style inline promotion — accrues to kernel time, which
			// the simulator charges to the faulting core's clock.
			res.Fault = true
			s.kernelNs += s.costs.SoftFaultNs
			s.faults++
			s.obsFaults.Inc()
			if s.faultHook != nil {
				s.faultHook(core, v)
			}
			pte.Present = true
		}
		// The walk sets the accessed bit and refreshes the generation.
		pte.Accessed = true
		s.lru.Touch(pte)
		tlb.Insert(v)
	}
	res.Phys = pte.Frame.Addr() + mem.PhysAddr(va.Offset())
	res.Node = pte.Node
}

// NodeOf returns the tier currently backing the VPN.
func (s *System) NodeOf(v VPN) NodeID { return s.pt.Get(v).Node }

// NodeOfAddr returns the tier owning a physical address.
//
//m5:hotpath
func (s *System) NodeOfAddr(a mem.PhysAddr) NodeID {
	if s.nodes[NodeDDR].Span().Contains(a) {
		return NodeDDR
	}
	return NodeCXL
}

// CountDRAMAccess records one 64B DRAM access (LLC miss fill or writeback)
// against the owning node's bandwidth counters.
//
//m5:hotpath
func (s *System) CountDRAMAccess(a mem.PhysAddr, write bool) NodeID {
	id := s.NodeOfAddr(a)
	if write {
		s.nodes[id].CountWrites(1)
	} else {
		s.nodes[id].CountReads(1)
	}
	return id
}

// shootdown invalidates the VPN in every core's TLB and charges the IPI
// cost to the kernel once (broadcast).
func (s *System) shootdown(v VPN) {
	hit := false
	for _, t := range s.tlbs {
		if t.Invalidate(v) {
			hit = true
		}
	}
	if hit {
		s.kernelNs += s.costs.TLBShootdownNs
		s.shootdowns++
		s.obsShootdowns.Inc()
	}
}

// UnmapForSampling clears the present bit of the page and shoots down its
// TLB entries — ANB's sampling step (§2.1 Solution 1). The costs accrue to
// kernel time.
func (s *System) UnmapForSampling(v VPN) {
	pte := s.pt.Get(v)
	if !pte.Valid {
		return
	}
	pte.Present = false
	s.kernelNs += s.costs.PTEUnmapNs
	s.shootdown(v)
}

// ScanPTE reads and clears the accessed bit — DAMON's primitive (§2.1
// Solution 2). It returns whether the bit was set. The scan cost accrues
// to kernel time. A set bit also refreshes the MGLRU generation, as the
// kernel's page-reclaim walk does.
func (s *System) ScanPTE(v VPN) bool {
	pte := s.pt.Get(v)
	s.kernelNs += s.costs.PTEScanNs
	if !pte.Valid {
		return false
	}
	was := pte.Accessed
	if was {
		s.lru.Touch(pte)
	}
	pte.Accessed = false
	return was
}

// PTEYoung reads the accessed bit without clearing it (the check half of
// DAMON's prepare/check protocol). The read costs one PTE access of
// kernel time.
func (s *System) PTEYoung(v VPN) bool {
	s.kernelNs += s.costs.PTEScanNs
	pte := s.pt.Get(v)
	return pte.Valid && pte.Accessed
}

// Pin marks the page non-migratable (DMA-pinned / node-bound).
func (s *System) Pin(v VPN) { s.pt.Get(v).Pinned = true }

// Migrate moves one page to the target node: allocate, remap, free, shoot
// down, charging migrate_pages() cost. It refuses pinned pages and full
// targets, as Promoter's safety check does (§5.2).
func (s *System) Migrate(v VPN, to NodeID) error {
	pte := s.pt.Get(v)
	if !pte.Valid {
		return fmt.Errorf("tiermem: migrating unmapped VPN %d", v)
	}
	if pte.Pinned {
		s.rejected++
		s.obsRejected.Inc()
		return ErrPinned
	}
	if pte.HugePart {
		s.rejected++
		s.obsRejected.Inc()
		return ErrHugeMember
	}
	if pte.Node == to {
		return nil // already there
	}
	dst := s.nodes[to]
	frame, ok := dst.Alloc()
	if !ok {
		s.rejected++
		s.obsRejected.Inc()
		return ErrNoMemory
	}
	s.nodes[pte.Node].Free(pte.Frame)
	pte.Frame = frame
	pte.Node = to
	s.shootdown(v)
	s.kernelNs += s.costs.MigratePageNs
	if to == NodeDDR {
		s.promotions++
		s.obsPromotions.Inc()
	} else {
		s.demotions++
		s.obsDemotions.Inc()
	}
	return nil
}

// Promote migrates the page to DDR, demoting MGLRU-cold DDR pages to CXL
// first when DDR is at its cgroup limit — the equilibrium behaviour of
// §7.2 ("whenever the page-migration solution migrates a certain number of
// pages to DDR DRAM, it demotes the same number of pages to CXL DRAM").
func (s *System) Promote(v VPN) error {
	pte := s.pt.Get(v)
	if pte.Node == NodeDDR {
		return nil
	}
	if pte.Pinned {
		s.rejected++
		s.obsRejected.Inc()
		return ErrPinned
	}
	if s.nodes[NodeDDR].FreePages() == 0 {
		victims := s.lru.DemoteCandidates(NodeDDR, 1)
		if len(victims) == 0 {
			s.rejected++
			s.obsRejected.Inc()
			return ErrNoMemory
		}
		if err := s.Migrate(victims[0], NodeCXL); err != nil {
			return err
		}
		s.obsMGLRU.Inc()
	}
	return s.Migrate(v, NodeDDR)
}

// PromoteBatch promotes a set of pages, demoting MGLRU-cold DDR pages in a
// single pass to make room, and returns how many promotions succeeded.
// Rejections (pinned pages, exhausted memory) are counted but do not abort
// the batch.
func (s *System) PromoteBatch(vs []VPN) int {
	need := make([]VPN, 0, len(vs))
	for _, v := range vs {
		pte := s.pt.Get(v)
		if !pte.Valid || pte.Node == NodeDDR {
			continue
		}
		if pte.Pinned {
			s.rejected++
			s.obsRejected.Inc()
			continue
		}
		need = append(need, v)
	}
	if len(need) == 0 {
		return 0
	}
	// Fill free DDR capacity first.
	ok, i := 0, 0
	for ; i < len(need) && s.nodes[NodeDDR].FreePages() > 0; i++ {
		if err := s.Migrate(need[i], NodeDDR); err == nil {
			ok++
		}
	}
	rest := need[i:]
	if len(rest) == 0 {
		return ok
	}
	// DDR is full: demote one MGLRU-cold victim per remaining promotion.
	// The promoted pages live on CXL, so the DDR-resident victims are
	// disjoint from them by construction; one table scan serves the batch.
	victims := s.lru.DemoteCandidates(NodeDDR, len(rest))
	for _, v := range rest {
		if len(victims) == 0 {
			s.rejected++
			s.obsRejected.Inc()
			continue
		}
		if err := s.Migrate(victims[0], NodeCXL); err != nil {
			s.rejected++
			s.obsRejected.Inc()
			continue
		}
		s.obsMGLRU.Inc()
		victims = victims[1:]
		if err := s.Migrate(v, NodeDDR); err == nil {
			ok++
		}
	}
	return ok
}

// KernelNs returns cumulative kernel mm CPU time in nanoseconds.
//
//m5:hotpath
func (s *System) KernelNs() uint64 { return s.kernelNs }

// AddKernelNs charges additional kernel CPU time (used by the migration
// daemons for their own bookkeeping work).
//
//m5:hotpath
func (s *System) AddKernelNs(ns uint64) { s.kernelNs += ns }

// Faults returns the number of soft page faults taken.
func (s *System) Faults() uint64 { return s.faults }

// Walks returns the number of page walks (TLB misses).
func (s *System) Walks() uint64 { return s.walks }

// Promotions returns pages migrated CXL→DDR.
func (s *System) Promotions() uint64 { return s.promotions }

// Demotions returns pages migrated DDR→CXL.
func (s *System) Demotions() uint64 { return s.demotions }

// Rejected returns refused migrations.
func (s *System) Rejected() uint64 { return s.rejected }

// Shootdowns returns TLB shootdown broadcasts issued (unmaps and
// migrations that actually hit a TLB entry).
func (s *System) Shootdowns() uint64 { return s.shootdowns }

// ResidentPages returns how many of the workload's pages live on the node.
func (s *System) ResidentPages(node NodeID) uint64 {
	var n uint64
	s.pt.ForEach(func(_ VPN, pte *PTE) bool {
		if pte.Valid && pte.Node == node {
			n++
		}
		return true
	})
	return n
}
