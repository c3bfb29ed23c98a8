package baseline

import (
	"sort"

	"m5/internal/mem"
	"m5/internal/obs"
	"m5/internal/tiermem"
	"m5/internal/trace"
)

// PEBSConfig parameterizes the sampling-based solution.
type PEBSConfig struct {
	// SampleRate takes one of every SampleRate LLC-miss addresses
	// (§2.1: e.g. once every 1,000 misses; high precision needs high
	// rates, which interrupt the CPU more).
	SampleRate uint64
	// BufferEntries is the PEBS buffer size; when full, an interrupt fires
	// and the CPU processes the batch.
	BufferEntries int
	// DrainCostNs is the interrupt + processing cost per buffer drain.
	DrainCostNs uint64
	// PeriodNs is the promotion-decision interval.
	PeriodNs uint64
	// HotK bounds pages elected per period.
	HotK int
	// Migrate enables promotion; false is profiling mode.
	Migrate bool
	// HotListCap bounds the recorded hot list; 0 = unbounded.
	HotListCap int
	// Metrics, when non-nil, receives PEBS's counters (ticks, samples,
	// drains, promoted). The Observe hot path pays one nil check per
	// captured sample when disabled.
	Metrics *obs.Registry
}

func (c PEBSConfig) withDefaults() PEBSConfig {
	if c.SampleRate == 0 {
		c.SampleRate = 100
	}
	if c.BufferEntries == 0 {
		c.BufferEntries = 512
	}
	if c.DrainCostNs == 0 {
		c.DrainCostNs = 20_000
	}
	if c.PeriodNs == 0 {
		c.PeriodNs = 1_000_000
	}
	if c.HotK == 0 {
		c.HotK = 256
	}
	return c
}

// PEBS is the address-sampling solution (§2.1 Solution 3, the Memtis
// family): it observes one in SampleRate LLC-miss addresses, accumulates
// per-page sample counts, and promotes the most-sampled pages each period.
// The paper could not run this on real CXL memory (no PEBS support for CXL
// misses on the evaluated CPU); the simulation has no such limitation, so
// the reproduction can include it as an extra baseline.
//
// PEBS implements trace.Sink: the simulator attaches it to the DRAM-access
// stream (the LLC-miss stream).
type PEBS struct {
	cfg    PEBSConfig
	sys    *tiermem.System
	hot    *hotSet
	counts map[mem.PFN]uint64
	seen   uint64
	buffer int

	samples  uint64
	drains   uint64
	promoted uint64
	ticks    uint64

	obsTicks    *obs.Counter
	obsSamples  *obs.Counter
	obsDrains   *obs.Counter
	obsPromoted *obs.Counter
}

// NewPEBS builds the sampler over the system.
func NewPEBS(sys *tiermem.System, cfg PEBSConfig) *PEBS {
	p := &PEBS{
		cfg:    cfg.withDefaults(),
		sys:    sys,
		hot:    newHotSet(cfg.HotListCap),
		counts: make(map[mem.PFN]uint64),
	}
	p.obsTicks = cfg.Metrics.Counter("ticks")
	p.obsSamples = cfg.Metrics.Counter("samples")
	p.obsDrains = cfg.Metrics.Counter("drains")
	p.obsPromoted = cfg.Metrics.Counter("promoted")
	return p
}

// Name implements the migration-daemon contract.
func (p *PEBS) Name() string { return "pebs" }

// PeriodNs implements the migration-daemon contract.
func (p *PEBS) PeriodNs() uint64 { return p.cfg.PeriodNs }

// Observe implements trace.Sink over the LLC-miss address stream.
func (p *PEBS) Observe(a trace.Access) {
	p.seen++
	if p.seen%p.cfg.SampleRate != 0 {
		return
	}
	// Only slow-tier samples matter for promotion decisions.
	if p.sys.NodeOfAddr(a.Addr) != tiermem.NodeCXL {
		return
	}
	p.samples++
	p.obsSamples.Inc()
	p.counts[a.Addr.Page()]++
	p.buffer++
	if p.buffer >= p.cfg.BufferEntries {
		p.buffer = 0
		p.drains++
		p.obsDrains.Inc()
		p.sys.AddKernelNs(p.cfg.DrainCostNs)
	}
}

// Tick elects the most-sampled pages, records them, optionally migrates,
// and decays the sample histogram.
func (p *PEBS) Tick(nowNs uint64) {
	p.ticks++
	p.obsTicks.Inc()
	type pc struct {
		f mem.PFN
		c uint64
	}
	var all []pc
	for f, c := range p.counts {
		all = append(all, pc{f, c})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].c != all[j].c {
			return all[i].c > all[j].c
		}
		return all[i].f < all[j].f
	})
	if len(all) > p.cfg.HotK {
		all = all[:p.cfg.HotK]
	}
	var batch []tiermem.VPN
	for _, e := range all {
		p.hot.add(e.f)
		if p.cfg.Migrate {
			if v, ok := p.vpnOf(e.f); ok {
				batch = append(batch, v)
			}
		}
	}
	if len(batch) > 0 {
		n := uint64(p.sys.PromoteBatch(batch))
		p.promoted += n
		p.obsPromoted.Add(n)
	}
	// Exponential decay keeps the histogram fresh (Memtis-style cooling).
	for f, c := range p.counts {
		if c <= 1 {
			delete(p.counts, f)
		} else {
			p.counts[f] = c / 2
		}
	}
}

// vpnOf reverse-maps a frame to its VPN by table walk. The kernel keeps a
// reverse map; the O(n) walk here only runs for elected pages.
func (p *PEBS) vpnOf(f mem.PFN) (tiermem.VPN, bool) {
	var out tiermem.VPN
	found := false
	p.sys.PageTable().ForEach(func(v tiermem.VPN, pte *tiermem.PTE) bool {
		if pte.Valid && pte.Frame == f {
			out, found = v, true
			return false
		}
		return true
	})
	return out, found
}

// HotPFNs returns the recorded hot-page list (profiling mode output).
func (p *PEBS) HotPFNs() []mem.PFN { return p.hot.pfns() }

// Samples returns how many addresses were captured.
func (p *PEBS) Samples() uint64 { return p.samples }

// Drains returns how many PEBS-buffer interrupts fired.
func (p *PEBS) Drains() uint64 { return p.drains }

// Promoted returns how many pages PEBS has migrated to DDR.
func (p *PEBS) Promoted() uint64 { return p.promoted }

// Stats implements tiermem.Policy. Identified is the distinct hot pages
// elected across periods.
func (p *PEBS) Stats() tiermem.PolicyStats {
	return tiermem.PolicyStats{
		Ticks:      p.ticks,
		Identified: uint64(p.hot.size()),
		Promoted:   p.promoted,
		PeriodNs:   p.cfg.PeriodNs,
	}
}
