package baseline

import (
	"math/rand"
	"sort"

	"m5/internal/mem"
	"m5/internal/obs"
	"m5/internal/tiermem"
)

const (
	// damonPeriodNs is the sampling interval (stock DAMON: 5ms).
	damonPeriodNs = 1_000_000
	// damonAggregationTicks is how many sampling intervals form one
	// aggregation window (stock DAMON: 20, i.e. 100ms).
	damonAggregationTicks = 4
	// damonHotThreshold is the minimum nr_accesses (sampled-accessed
	// epochs in the window) for a region to be deemed hot (recorded in
	// the hot list).
	damonHotThreshold = 1
	// damonMigrateThreshold is the minimum nr_accesses for a region's
	// pages to be *promoted*: half the window, rounded up. The DAMOS
	// promote schemes gate on consistently hot regions, not merely warm
	// ones, or migration churn erases the gains.
	damonMigrateThreshold = (damonAggregationTicks + 1) / 2
	// damonMinRegions / damonMaxRegions bound the adaptive region count
	// (stock DAMON: 10 / 1000).
	damonMinRegions = 10
	damonMaxRegions = 1000
	// damonSampleOverheadNs is the kernel cost per region sample beyond
	// the PTE read itself: the four-level table walk and rmap lookup
	// needed to reach the sampled PTE. This is what makes DAMON's
	// monitoring more expensive than ANB's despite touching fewer PTEs
	// (§4.2).
	damonSampleOverheadNs = 150
	// damonSeed seeds the sampling-offset generator.
	damonSeed = 1
)

// DAMONConfig parameterizes the region-based access monitor.
type DAMONConfig struct {
	// MigrateBatch bounds pages promoted per aggregation (DAMOS quota).
	MigrateBatch int
	// Migrate enables promotion; false is profiling mode.
	Migrate bool
	// HotListCap bounds the recorded hot-page list; 0 = unbounded.
	HotListCap int
	// Metrics, when non-nil, receives DAMON's decision counters (ticks,
	// scans, promoted) and aggregation events.
	Metrics *obs.Registry
}

func (c DAMONConfig) withDefaults() DAMONConfig {
	if c.MigrateBatch == 0 {
		c.MigrateBatch = 256
	}
	return c
}

// region is one DAMON monitoring region: a contiguous VPN range with one
// access counter. DAMON's core trade-off lives here: every page of a
// region shares the counter of the one page sampled per interval, which is
// why region-mates of a hot page get identified as hot whether they are or
// not (§4.1, Observation 1).
type region struct {
	start, end tiermem.VPN // [start, end)
	nrAccesses int
	// sample is the page armed (accessed bit cleared) last interval and
	// checked this interval — DAMON's prepare/check protocol. armed is
	// false right after region adaptation.
	sample tiermem.VPN
	armed  bool
}

func (r region) pages() int { return int(r.end - r.start) }

// DAMON is the PTE-scanning solution (§2.1 Solution 2) modelled after the
// kernel's damon_va: the address space is divided into adaptive regions;
// every sampling interval one page per region has its accessed bit checked
// and cleared; each aggregation window, hot regions are elected (and their
// pages optionally promoted under a DAMOS-style quota), then regions are
// merged when similar and re-split to track the workload.
type DAMON struct {
	cfg     DAMONConfig
	sys     *tiermem.System
	hot     *hotSet
	regions []region
	rng     *rand.Rand
	tick    int

	scans     uint64
	elections uint64
	promoted  uint64

	metrics     *obs.Registry
	obsTicks    *obs.Counter
	obsScans    *obs.Counter
	obsPromoted *obs.Counter
	lastNowNs   uint64
}

// NewDAMON builds DAMON over the system's current address space.
func NewDAMON(sys *tiermem.System, cfg DAMONConfig) *DAMON {
	d := &DAMON{
		cfg: cfg.withDefaults(),
		sys: sys,
		hot: newHotSet(cfg.HotListCap),
		rng: rand.New(rand.NewSource(damonSeed)),
	}
	d.metrics = cfg.Metrics
	d.obsTicks = cfg.Metrics.Counter("ticks")
	d.obsScans = cfg.Metrics.Counter("scans")
	d.obsPromoted = cfg.Metrics.Counter("promoted")
	d.initRegions()
	return d
}

// initRegions splits the mapped space into damonMinRegions equal
// regions.
func (d *DAMON) initRegions() {
	n := tiermem.VPN(d.sys.PageTable().Len())
	if n == 0 {
		return
	}
	k := tiermem.VPN(damonMinRegions)
	if k > n {
		k = n
	}
	step := n / k
	for i := tiermem.VPN(0); i < k; i++ {
		start := i * step
		end := start + step
		if i == k-1 {
			end = n
		}
		d.regions = append(d.regions, region{start: start, end: end})
	}
}

// Name implements the migration-daemon contract.
func (d *DAMON) Name() string { return "damon" }

// PeriodNs implements the migration-daemon contract.
func (d *DAMON) PeriodNs() uint64 { return damonPeriodNs }

// Tick runs one sampling interval per region using DAMON's prepare/check
// protocol: the page armed last interval (accessed bit cleared then) is
// checked now — its bit is set only if the page was accessed *during the
// interval* — and a fresh page is armed for the next interval. Kernel
// time is charged per sample for the table walk and PTE accesses.
func (d *DAMON) Tick(nowNs uint64) {
	d.obsTicks.Inc()
	d.lastNowNs = nowNs
	if len(d.regions) == 0 {
		d.initRegions()
		if len(d.regions) == 0 {
			return
		}
	}
	for i := range d.regions {
		r := &d.regions[i]
		if r.pages() <= 0 {
			continue
		}
		if r.armed && d.sys.PTEYoung(r.sample) {
			r.nrAccesses++
		}
		// Arm the next sample: clearing its accessed bit starts a fresh
		// observation interval for that page.
		r.sample = r.start + tiermem.VPN(d.rng.Intn(r.pages()))
		r.armed = true
		d.sys.ScanPTE(r.sample)
		d.scans++
		d.obsScans.Inc()
		d.sys.AddKernelNs(damonSampleOverheadNs)
	}
	d.tick++
	if d.tick%damonAggregationTicks == 0 {
		d.aggregate()
	}
}

// aggregate elects hot regions, records/promotes their pages, then merges
// similar adjacent regions and re-splits for the next window.
func (d *DAMON) aggregate() {
	d.elections++
	// Hot regions, hottest (by nr_accesses, then smaller first — the
	// DAMOS "young and small first" prioritization approximated) first.
	order := make([]int, 0, len(d.regions))
	for i, r := range d.regions {
		if r.nrAccesses >= damonHotThreshold {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(a, b int) bool {
		ra, rb := d.regions[order[a]], d.regions[order[b]]
		if ra.nrAccesses != rb.nrAccesses {
			return ra.nrAccesses > rb.nrAccesses
		}
		return ra.pages() < rb.pages()
	})
	var batch []tiermem.VPN
	pt := d.sys.PageTable()
	for _, i := range order {
		r := d.regions[i]
		migratable := r.nrAccesses >= damonMigrateThreshold
		for v := r.start; v < r.end; v++ {
			recordHot(d.sys, d.hot, v)
			if d.cfg.Migrate && migratable && len(batch) < d.cfg.MigrateBatch {
				if pte, ok := pt.Lookup(v); ok && pte.Valid && pte.Node == tiermem.NodeCXL {
					batch = append(batch, v)
				}
			}
		}
	}
	if len(batch) > 0 {
		n := uint64(d.sys.PromoteBatch(batch))
		d.promoted += n
		d.obsPromoted.Add(n)
		d.metrics.Emit(d.lastNowNs, "promote_batch", uint64(len(batch)), n)
	}
	d.mergeAndSplit()
}

// mergeAndSplit is DAMON's adaptive-region step, following the kernel's
// balance: adjacent regions with similar access counts merge (never below
// damonMinRegions), and regions split in two at a random point only while
// the count is at most half of damonMaxRegions — so the population oscillates in
// the upper half of its budget and intra-region differences keep
// surfacing. Counters reset for the new window; adaptation disarms the
// prepare/check samples.
func (d *DAMON) mergeAndSplit() {
	// Merge pass with a correct running floor.
	merged := make([]region, 0, len(d.regions))
	count := len(d.regions)
	for _, r := range d.regions {
		if n := len(merged); n > 0 && count > damonMinRegions {
			last := &merged[n-1]
			if last.end == r.start && absInt(last.nrAccesses-r.nrAccesses) <= 1 {
				last.end = r.end
				count--
				continue
			}
		}
		merged = append(merged, r)
	}
	// Split pass (kernel: split only while nr_regions <= max/2).
	if len(merged) <= damonMaxRegions/2 {
		next := make([]region, 0, len(merged)*2)
		for _, r := range merged {
			if r.pages() >= 2 {
				cut := r.start + 1 + tiermem.VPN(d.rng.Intn(r.pages()-1))
				next = append(next,
					region{start: r.start, end: cut},
					region{start: cut, end: r.end})
			} else {
				next = append(next, region{start: r.start, end: r.end})
			}
		}
		d.regions = next
		return
	}
	// Reset counters and samples without splitting.
	for i := range merged {
		merged[i].nrAccesses = 0
		merged[i].armed = false
	}
	d.regions = merged
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Regions returns the current monitoring-region count.
func (d *DAMON) Regions() int { return len(d.regions) }

// HotPFNs returns the recorded hot-page list (profiling mode output).
func (d *DAMON) HotPFNs() []mem.PFN { return d.hot.pfns() }

// Scans returns the number of PTEs sampled so far.
func (d *DAMON) Scans() uint64 { return d.scans }

// Promoted returns how many pages DAMON has migrated to DDR.
func (d *DAMON) Promoted() uint64 { return d.promoted }

// Stats implements tiermem.Policy. Identified is the distinct hot pages
// recorded across aggregation windows.
func (d *DAMON) Stats() tiermem.PolicyStats {
	return tiermem.PolicyStats{
		Ticks:      uint64(d.tick),
		Identified: uint64(d.hot.size()),
		Promoted:   d.promoted,
		PeriodNs:   damonPeriodNs,
	}
}
