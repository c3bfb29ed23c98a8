package baseline

import (
	"m5/internal/mem"
	"m5/internal/obs"
	"m5/internal/tiermem"
)

const (
	// anbPeriodNs is the base sampling period (numa_balancing scan period
	// minimum): 1ms of simulated time per scan slice. Like the kernel's
	// adaptive scan period, it doubles while sampling is unproductive —
	// §7.2 observes that ANB "rarely unmaps pages" once migration reaches
	// equilibrium — and resets when fast memory has headroom again.
	anbPeriodNs = 1_000_000
	// anbMaxPeriodNs caps the backoff at 64x the base period.
	anbMaxPeriodNs = 64 * anbPeriodNs
)

// ANBConfig parameterizes Automatic NUMA Balancing.
type ANBConfig struct {
	// SamplePages is how many slow-tier pages are unmapped per period
	// (the kernel samples e.g. 64K pages; scaled instances sample fewer).
	SamplePages int
	// Migrate enables migration on fault; false is the §4.1 profiling
	// mode that only records identified pages.
	Migrate bool
	// HotListCap bounds the recorded hot-page list (the paper collects up
	// to 128K); 0 = unbounded.
	HotListCap int
	// Metrics, when non-nil, receives ANB's decision counters (ticks,
	// sampled, promoted) and scan-period backoff events.
	Metrics *obs.Registry
}

func (c ANBConfig) withDefaults() ANBConfig {
	if c.SamplePages == 0 {
		c.SamplePages = 256
	}
	return c
}

// ANB is Automatic NUMA Balancing (§2.1 Solution 1): it periodically
// clears the present bit of sampled slow-memory pages and shoots down
// their TLB entries; pages that fault afterwards are deemed hot and
// migrated to fast memory by the fault handler.
type ANB struct {
	cfg    ANBConfig
	sys    *tiermem.System
	hot    *hotSet
	cursor tiermem.VPN // scan position, wraps over the address space
	armed  map[tiermem.VPN]bool
	period uint64

	sampled  uint64
	promoted uint64
	ticks    uint64

	metrics     *obs.Registry
	obsTicks    *obs.Counter
	obsSampled  *obs.Counter
	obsPromoted *obs.Counter
}

// NewANB builds ANB over the system and installs its fault handler.
func NewANB(sys *tiermem.System, cfg ANBConfig) *ANB {
	a := &ANB{
		cfg:   cfg.withDefaults(),
		sys:   sys,
		hot:   newHotSet(cfg.HotListCap),
		armed: make(map[tiermem.VPN]bool),
	}
	a.period = anbPeriodNs
	a.metrics = cfg.Metrics
	a.obsTicks = cfg.Metrics.Counter("ticks")
	a.obsSampled = cfg.Metrics.Counter("sampled")
	a.obsPromoted = cfg.Metrics.Counter("promoted")
	sys.OnFault(a.onFault)
	return a
}

// Name implements the migration-daemon contract.
func (a *ANB) Name() string { return "anb" }

// PeriodNs implements the migration-daemon contract; the period adapts
// between anbPeriodNs and anbMaxPeriodNs.
func (a *ANB) PeriodNs() uint64 { return a.period }

// Tick runs one sampling period: walk forward from the scan cursor and
// unmap SamplePages pages currently resident on CXL. The unmap and
// shootdown costs accrue to kernel time inside the system.
func (a *ANB) Tick(nowNs uint64) {
	a.ticks++
	a.obsTicks.Inc()
	pt := a.sys.PageTable()
	n := pt.Len()
	if n == 0 {
		return
	}
	// Adaptive scan period: once migration has reached equilibrium (no
	// DDR headroom under the cgroup limit), sampling becomes mostly
	// unproductive churn, so the period backs off exponentially — the
	// behaviour §7.2 observes for ANB at steady state. Fresh headroom
	// resets it.
	if a.cfg.Migrate {
		old := a.period
		if a.sys.Node(tiermem.NodeDDR).FreePages() == 0 {
			a.period *= 2
			if a.period > anbMaxPeriodNs {
				a.period = anbMaxPeriodNs
			}
		} else {
			a.period = anbPeriodNs
		}
		if a.period != old {
			a.metrics.Emit(nowNs, "period_change", 0, a.period)
		}
	}
	sampled := 0
	for scanned := 0; scanned < n && sampled < a.cfg.SamplePages; scanned++ {
		v := a.cursor
		a.cursor = (a.cursor + 1) % tiermem.VPN(n)
		pte, ok := pt.Lookup(v)
		if !ok || !pte.Valid || pte.Node != tiermem.NodeCXL || !pte.Present {
			continue
		}
		a.sys.UnmapForSampling(v)
		a.armed[v] = true
		sampled++
	}
	a.sampled += uint64(sampled)
	a.obsSampled.Add(uint64(sampled))
}

// onFault is the hinting-page-fault handler: a fault on an armed page
// means the page was accessed since sampling — identify it as hot and
// (when migration is enabled) promote it right there, as the kernel does.
func (a *ANB) onFault(_ int, v tiermem.VPN) {
	if !a.armed[v] {
		return
	}
	delete(a.armed, v)
	recordHot(a.sys, a.hot, v)
	if a.cfg.Migrate {
		if err := a.sys.Promote(v); err == nil {
			a.promoted++
			a.obsPromoted.Inc()
		}
	}
}

// HotPFNs returns the recorded hot-page list (profiling mode output).
func (a *ANB) HotPFNs() []mem.PFN { return a.hot.pfns() }

// Sampled returns how many pages have been unmapped for sampling.
func (a *ANB) Sampled() uint64 { return a.sampled }

// Promoted returns how many pages ANB has migrated to DDR.
func (a *ANB) Promoted() uint64 { return a.promoted }

// Stats implements tiermem.Policy. Identified is the distinct hot pages
// the fault handler has recorded.
func (a *ANB) Stats() tiermem.PolicyStats {
	return tiermem.PolicyStats{
		Ticks:      a.ticks,
		Identified: uint64(a.hot.size()),
		Promoted:   a.promoted,
		PeriodNs:   a.period,
	}
}
