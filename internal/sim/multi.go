package sim

import (
	"fmt"

	"m5/internal/cache"
	"m5/internal/cxl"
	"m5/internal/obs"
	"m5/internal/stats"
	"m5/internal/tiermem"
	"m5/internal/trace"
	"m5/internal/tracker"
	"m5/internal/workload"
)

// MultiConfig assembles a multi-core experiment: N benchmark instances (the
// paper's SPECrate setup runs 8 instances of each SPEC workload, §6) share
// the tiered memory system, the CXL device, and the migration daemon, each
// on its own core with a private cache hierarchy and TLB.
type MultiConfig struct {
	// MakeWorkload builds instance i's generator (same benchmark,
	// different seed, as SPECrate does).
	MakeWorkload func(i int) workload.Generator
	// Instances is the number of co-running copies / cores.
	Instances int
	// DDRFraction sizes the DDR cgroup limit against the *total*
	// footprint (default 0.5, as in the single-core runner).
	DDRFraction float64
	// Costs is the latency model (default DefaultCosts).
	Costs tiermem.CostModel
	// HPT / HWT enable trackers on the shared CXL controller.
	HPT *tracker.Config
	HWT *tracker.Config
	// EnablePAC attaches the exact profiler.
	EnablePAC bool
	// DDRBandwidthGBs / CXLBandwidthGBs cap per-tier 64B-transfer
	// throughput; queueing delay appears once co-running cores saturate a
	// tier (DDR: 4×DDR5-4800 ≈ 150GB/s; CXL: the device's single
	// DDR4-2666 channel ≈ 21GB/s, Table 2 / §6). Zero keeps the default.
	DDRBandwidthGBs float64
	CXLBandwidthGBs float64
	// Metrics, when non-nil, is fanned out exactly as in the single-core
	// Config ("mem", "cxl", a "cache" scope shared by every core's private
	// hierarchy, and "chan.ddr"/"chan.cxl" bandwidth-queue counters).
	Metrics *obs.Registry
}

// channel is a single-server queue modelling one tier's data-transfer
// bandwidth: each 64B access occupies the channel for servicePs
// picoseconds. The clock is integer picoseconds, and within one busy
// period the k-th departure is computed as base + round(k×servicePs) —
// one rounding per busy period, so fractional service times (64B at
// 150GB/s ≈ 0.427ns) never accumulate drift over millions of accesses.
type channel struct {
	servicePs float64 // exact service time in ps
	base      uint64  // ps: start of the current busy period
	served    uint64  // serves in the current busy period
	nextFree  uint64  // ps: when the channel next idles

	obsServes  *obs.Counter // chan.*.serves
	obsQueued  *obs.Counter // chan.*.queued (serves that waited)
	obsDelayNs *obs.Counter // chan.*.queue_delay_ns (total wait)
}

// newChannel builds a channel serving 64B transfers at the given
// bandwidth. metrics may be nil.
func newChannel(bandwidthGBs float64, metrics *obs.Registry) channel {
	return channel{
		servicePs:  64 * 1000 / bandwidthGBs, //m5:floatok setup-time service period from the config bandwidth
		obsServes:  metrics.Counter("serves"),
		obsQueued:  metrics.Counter("queued"),
		obsDelayNs: metrics.Counter("queue_delay_ns"),
	}
}

// serve returns the extra queueing delay in whole ns for an access issued
// at now (ns) and advances the channel clock, retaining picosecond
// precision internally.
func (c *channel) serve(now uint64) uint64 {
	nowPs := now * 1000
	var delayPs uint64
	if c.nextFree > nowPs {
		delayPs = c.nextFree - nowPs
	} else {
		// Idle: a new busy period begins at now.
		c.base = nowPs
		c.served = 0
	}
	c.served++
	c.nextFree = c.base + uint64(float64(c.served)*c.servicePs+0.5) //m5:floatok per-channel fixed-point recurrence over the integer served count, bit-stable for identical inputs
	c.obsServes.Inc()
	if delayPs > 0 {
		c.obsQueued.Inc()
		c.obsDelayNs.Add(delayPs / 1000)
	}
	return delayPs / 1000
}

// core is one instance's private state.
type core struct {
	id      int
	gen     workload.Generator
	base    tiermem.VPN // first VPN of the instance's arena
	cache   *cache.Hierarchy
	clockNs uint64
	opStart uint64
	opLat   *stats.Reservoir
	done    bool

	accesses uint64
}

// MultiRunner drives N cores over one tiered-memory system in causal
// order: the core with the smallest local clock executes next, so shared
// state (page tables, trackers, bandwidth channels, the daemon) is always
// touched in global time order.
type MultiRunner struct {
	Sys   *tiermem.System
	Ctrl  *cxl.Controller
	cores []*core

	daemon   Daemon
	nextTick uint64
	channels [2]channel
	costs    tiermem.CostModel
	metrics  *obs.Registry

	dramReads  [2]uint64
	dramWrites [2]uint64
}

// NewMultiRunner builds the machine. Instance footprints are allocated
// back to back on CXL.
func NewMultiRunner(cfg MultiConfig) (*MultiRunner, error) {
	if cfg.Instances <= 0 || cfg.MakeWorkload == nil {
		return nil, fmt.Errorf("sim: multi config needs instances and a workload factory")
	}
	if cfg.DDRFraction == 0 {
		cfg.DDRFraction = 0.5
	}
	if cfg.Costs == (tiermem.CostModel{}) {
		cfg.Costs = tiermem.DefaultCosts()
	}
	if cfg.DDRBandwidthGBs == 0 {
		cfg.DDRBandwidthGBs = 150
	}
	if cfg.CXLBandwidthGBs == 0 {
		cfg.CXLBandwidthGBs = 21
	}

	gens := make([]workload.Generator, cfg.Instances)
	var totalPages uint64
	for i := range gens {
		gens[i] = cfg.MakeWorkload(i)
		totalPages += (gens[i].Footprint() + 4095) / 4096
	}
	ddrLimit := uint64(float64(totalPages) * cfg.DDRFraction) //m5:floatok setup-time DDR capacity sizing
	if ddrLimit == 0 {
		ddrLimit = 1
	}
	sys := tiermem.NewSystem(tiermem.Config{
		DDRPages:      ddrLimit + 16,
		CXLPages:      totalPages + 64,
		DDRLimitPages: ddrLimit,
		Cores:         cfg.Instances,
		TLBEntries:    scaledTLBEntries(totalPages / uint64(cfg.Instances)),
		Costs:         cfg.Costs,
		Metrics:       cfg.Metrics.Scope("mem"),
	})
	m := &MultiRunner{
		Sys:     sys,
		costs:   cfg.Costs,
		metrics: cfg.Metrics,
	}
	m.channels[tiermem.NodeDDR] = newChannel(cfg.DDRBandwidthGBs, cfg.Metrics.Scope("chan.ddr"))
	m.channels[tiermem.NodeCXL] = newChannel(cfg.CXLBandwidthGBs, cfg.Metrics.Scope("chan.cxl"))

	// Every core's private hierarchy folds into one shared "cache" scope:
	// the causal-order scheduler touches them one at a time, so the shared
	// counters stay deterministic.
	cacheScope := cfg.Metrics.Scope("cache")
	// Arenas are allocated back to back: instance i's pages start after
	// instances 0..i-1.
	for i, gen := range gens {
		base, err := sys.Alloc(int((gen.Footprint()+4095)/4096), tiermem.NodeCXL)
		if err != nil {
			return nil, fmt.Errorf("sim: allocating instance %d arena: %w", i, err)
		}
		cacheCfg := NewScaledCache(gen.Footprint())
		cacheCfg.Metrics = cacheScope
		m.cores = append(m.cores, &core{
			id:    i,
			gen:   gen,
			base:  base,
			cache: cache.NewHierarchy(cacheCfg),
			opLat: stats.NewReservoir(1<<13, 23),
		})
	}
	m.Ctrl = cxl.NewController(cxl.ControllerConfig{
		Span:      sys.CXLSpan(),
		EnablePAC: cfg.EnablePAC,
		HPT:       cfg.HPT,
		HWT:       cfg.HWT,
		Metrics:   cfg.Metrics.Scope("cxl"),
	})
	return m, nil
}

// SetDaemon installs the shared migration daemon. Its ticks are charged to
// core 0's clock, as the paper pins the migration processes to a core that
// also runs one benchmark instance (§6).
func (m *MultiRunner) SetDaemon(d Daemon) {
	m.daemon = d
	if d != nil {
		m.nextTick = m.cores[0].clockNs + d.PeriodNs()
	}
}

// next returns the runnable core with the smallest clock, or nil.
func (m *MultiRunner) next() *core {
	var pick *core
	for _, c := range m.cores {
		if c.done {
			continue
		}
		if pick == nil || c.clockNs < pick.clockNs {
			pick = c
		}
	}
	return pick
}

// step advances one core by one access.
func (m *MultiRunner) step(c *core) {
	a, ok := c.gen.Next()
	if !ok {
		c.done = true
		return
	}
	c.accesses++
	kernelBefore := m.Sys.KernelNs()
	va := c.base.Addr() + tiermem.VirtAddr(a.Offset)
	var tr tiermem.TranslateResult
	m.Sys.TranslateInto(c.id, va, a.Write, &tr)
	c.clockNs += tr.ExtraNs

	res := c.cache.Access(tr.Phys, a.Write)
	switch res.Level {
	case cache.HitL1:
		c.clockNs += m.costs.L1HitNs
	case cache.HitL2:
		c.clockNs += m.costs.L2HitNs
	case cache.HitLLC:
		c.clockNs += m.costs.LLCHitNs
	case cache.HitMemory:
		node := m.Sys.CountDRAMAccess(tr.Phys, false)
		m.dramReads[node]++
		c.clockNs += m.channels[node].serve(c.clockNs)
		if node == tiermem.NodeCXL {
			c.clockNs += m.costs.CXLReadNs
			m.Ctrl.Device.Access(trace.Access{Time: c.clockNs, Addr: tr.Phys, Write: a.Write}) //m5:unitcredit exact engine: one access, weight 1
		} else {
			c.clockNs += m.costs.DDRReadNs
		}
	}
	for _, wb := range res.Writeback {
		node := m.Sys.CountDRAMAccess(wb, true)
		m.dramWrites[node]++
		c.clockNs += m.costs.DRAMWriteNs
		m.channels[node].serve(c.clockNs)
		if node == tiermem.NodeCXL {
			m.Ctrl.Device.Access(trace.Access{Time: c.clockNs, Addr: wb, Write: true}) //m5:unitcredit exact engine: one access, weight 1
		}
	}

	if a.OpEnd {
		c.opLat.Add(float64(c.clockNs - c.opStart))
		c.opStart = c.clockNs
	}

	// The daemon shares core 0.
	if m.daemon != nil && c.id == 0 && c.clockNs >= m.nextTick {
		m.daemon.Tick(c.clockNs)
		m.nextTick = c.clockNs + m.daemon.PeriodNs()
	}
	c.clockNs += m.Sys.KernelNs() - kernelBefore
}

// Run executes n accesses per core (causally interleaved) and returns the
// aggregate result.
func (m *MultiRunner) Run(nPerCore int) MultiResult {
	var startClock []uint64
	for _, c := range m.cores {
		startClock = append(startClock, c.clockNs)
		c.opLat.Reset()
	}
	startKernel := m.Sys.KernelNs()
	target := make([]uint64, len(m.cores))
	for i, c := range m.cores {
		target[i] = c.accesses + uint64(nPerCore)
	}
	for {
		c := m.next()
		if c == nil {
			break
		}
		if c.accesses >= target[c.id] {
			c.done = true
			continue
		}
		m.step(c)
	}
	for _, c := range m.cores {
		c.done = false
	}

	res := MultiResult{Cores: len(m.cores)}
	for i, c := range m.cores {
		el := c.clockNs - startClock[i]
		if el > res.ElapsedNs {
			res.ElapsedNs = el
		}
		res.Accesses += c.accesses
		if c.opLat.Len() > 0 {
			res.OpCount += uint64(c.opLat.Len())
			if p := c.opLat.Percentile(99); p > res.P99OpNs {
				res.P99OpNs = p
			}
		}
	}
	res.KernelNs = m.Sys.KernelNs() - startKernel
	res.DRAMReads = m.dramReads
	res.DRAMWrites = m.dramWrites
	res.Promotions = m.Sys.Promotions()
	res.Demotions = m.Sys.Demotions()
	res.Obs = m.metrics.Snapshot()
	return res
}

// Close releases every instance's generator.
func (m *MultiRunner) Close() {
	for _, c := range m.cores {
		c.gen.Close()
	}
}

// MultiResult aggregates a multi-core span.
type MultiResult struct {
	Cores int
	// Accesses is the total across cores; ElapsedNs is the slowest core's
	// span (SPECrate reports the slowest copy).
	Accesses  uint64
	ElapsedNs uint64
	KernelNs  uint64
	// P99OpNs is the worst per-core p99 (KVS instances only).
	OpCount uint64
	P99OpNs float64
	// Node-indexed traffic and migration totals.
	DRAMReads  [2]uint64
	DRAMWrites [2]uint64
	Promotions uint64
	Demotions  uint64
	// Obs is the observability snapshot at span end (nil unless
	// MultiConfig.Metrics was set).
	Obs *obs.Snapshot
}

// CXLReadShare returns the fraction of DRAM reads served by CXL.
func (r MultiResult) CXLReadShare() float64 {
	tot := r.DRAMReads[tiermem.NodeDDR] + r.DRAMReads[tiermem.NodeCXL]
	if tot == 0 {
		return 0
	}
	return float64(r.DRAMReads[tiermem.NodeCXL]) / float64(tot) //m5:floatok report-side share derivation from integer counters
}
