// Package sim is the end-to-end engine of the reproduction: it drives a
// workload's virtual-address stream through the TLB/page-table model, the
// cache hierarchy, and the tiered DRAM (DDR + CXL device), while a
// migration daemon (ANB, DAMON, PEBS, or the M5-manager) runs periodically
// on the same core — so the cost of identifying hot pages degrades the
// workload exactly as §4.2 measures, and the benefit of migrating true hot
// pages shows up as saved CXL latency exactly as §7.2 measures.
//
// Time is a deterministic nanosecond clock: each access pays its cache or
// DRAM latency plus any translation cost; each daemon tick adds the kernel
// time it consumed (the paper pins the migration processes to the
// benchmark's core, §6). Co-running cores (the paper's SPECrate setup,
// Config.CoRunning) each keep their own clock and take turns in causal
// order on the same batched loop.
package sim

import (
	"fmt"

	"m5/internal/cache"
	"m5/internal/cxl"
	"m5/internal/mem"
	"m5/internal/obs"
	"m5/internal/stats"
	"m5/internal/tiermem"
	"m5/internal/trace"
	"m5/internal/tracker"
	"m5/internal/workload"
)

// WordRemap intercepts DRAM accesses below the page table, deciding which
// tier actually serves a word and at what extra cost. It models
// memory-controller-level mechanisms like Intel Flat Memory Mode
// (package ifmm), which the paper discusses as complementary to M5 (§9).
type WordRemap interface {
	// Serve returns the tier serving this word access and any extra
	// latency (e.g. a swap), given the word's home tier.
	Serve(w mem.WordNum, home tiermem.NodeID) (tiermem.NodeID, uint64)
}

// Daemon is a page-migration solution scheduled by the engine: the unified
// tiermem.Policy contract (Name / PeriodNs / Tick / Stats). The baselines
// and the M5 manager all satisfy it.
type Daemon = tiermem.Policy

// tickKernelBounds buckets the kernel time one daemon tick consumed
// (metric policy.tick_kernel_ns): 1µs / 10µs / 100µs / 1ms / 10ms edges
// span the §4.2 identification-overhead range.
var tickKernelBounds = []uint64{1_000, 10_000, 100_000, 1_000_000, 10_000_000}

// Config assembles one experiment.
type Config struct {
	// Workload supplies the access stream. The runner allocates its
	// arena entirely on CXL at start, as the paper's cgroup setup does
	// (§4.1 S2, §7.2).
	Workload workload.Generator
	// DDRFraction sizes the DDR cgroup limit as a fraction of the
	// workload footprint (the paper's 3GB over ~6-8GB ≈ 0.5). Default 0.5.
	DDRFraction float64
	// HPT / HWT enable trackers on the CXL controller.
	HPT *tracker.Config
	HWT *tracker.Config
	// EnablePAC / EnableWAC attach the exact profilers (needed by the
	// access-count-ratio and sparsity experiments).
	EnablePAC bool
	EnableWAC bool
	// HugePages maps the workload arena as 2MB huge pages (the §8
	// extension): the footprint rounds up to a 512-page multiple and
	// migrations move whole units. Requires a footprint of at least one
	// huge page.
	HugePages bool
	// CtxSwitchPeriodNs flushes the TLB periodically (context switches /
	// timer ticks), the "architectural events" §2.1 cites as the passive
	// invalidation path. Default 1ms of simulated time (a 1kHz tick).
	CtxSwitchPeriodNs uint64
	// Metrics, when non-nil, is the experiment's observability registry:
	// the runner fans scoped children out to every layer ("cache", "cxl",
	// "mem") and observes daemon-tick kernel time under "policy". Nil
	// keeps every instrumented hot path at a single nil check (zero
	// allocations, no counter work).
	Metrics *obs.Registry
	// Sampling selects the fidelity tier (see sampling.go): the
	// zero value and "exact" keep the byte-identical engine; "sampled"
	// alternates functional warming with detailed measurement windows
	// and reports headline time as an estimate with a Student-t
	// confidence interval.
	Sampling SamplingConfig
	// CoRunning supplies the streams of cores 1..N-1; Workload runs on
	// core 0 (the paper's SPECrate setup co-runs 8 copies, §6). Each core
	// has a private cache hierarchy, TLB, clock and arena (allocated back
	// to back on CXL after core 0's), and shares the tiers, the CXL
	// controller, the miss sinks, the word remapper and the bandwidth
	// queues; the daemon runs on core 0. DDRFraction then applies to the
	// total footprint. Run(n) advances every core n accesses. Sampling,
	// HugePages and checkpoints need a single core.
	CoRunning []workload.Generator
	// Bandwidth queues DRAM traffic on per-tier bandwidth channels
	// (ddrBandwidthGBs, cxlBandwidthGBs): a read miss waits for its tier's
	// channel and a writeback occupies it, so co-running cores that
	// saturate a tier see queueing delay. Metrics gains "chan.ddr" and
	// "chan.cxl" scopes. The sampled tier does not model the queues.
	//
	// COMPAT: a per-machine option only because the deleted multi-core
	// engine queued at every core count while the single-core harnesses
	// never did. Queueing fig9's cells would add chan.* keys to their obs
	// snapshots, and not queueing ext-contention's x1 cell moves it (seed
	// 2, none: 5.527 -> 5.528 M/s): a miss issued in the same nanosecond
	// as a writeback waits about 3ns.
	Bandwidth bool
}

// Runner is one assembled experiment instance. A machine with co-running
// cores is one Runner per core over the shared Sys and Ctrl; the caller
// holds core 0's, which owns the daemon, the metrics and the scheduler.
type Runner struct {
	Sys   *tiermem.System
	Ctrl  *cxl.Controller
	Cache *cache.Hierarchy // this core's private hierarchy

	cfg      Config // retained (with defaults applied) so checkpoints can rebuild the machine
	gen      workload.Generator
	base     tiermem.VPN
	daemon   Daemon
	remap    WordRemap
	sinks    trace.Tee // observers of the full DRAM-access stream
	clockNs  uint64
	nextTick uint64
	opStart  uint64
	opLat    *stats.Reservoir
	costs    tiermem.CostModel
	// latHit flattens the per-access hit-level switch: indexed by
	// cache.HitL1..HitLLC (HitMemory takes the DRAM path instead).
	// latRead is the DRAM read latency of each tier, indexed by
	// tiermem.NodeID.
	latHit  [4]uint64
	latRead [2]uint64
	// batch is the reusable access buffer every loop pulls the generator
	// stream into; phys holds the functional tier's translated addresses
	// for one batch (sampled runners only).
	batch []workload.Access
	phys  []mem.PhysAddr

	// Sampled-mode state (sampling.go): sampled caches
	// cfg.Sampling.Enabled() and smp is the per-Run scheduler scratch.
	// estPrior persists the measured mean user-side ns/access across Runs
	// (and through Checkpoint/Fork), so spans too short to schedule their
	// own windows can still run thinned against a primed estimate.
	sampled  bool
	smp      sampleState
	estPrior float64

	ctxNs   uint64
	nextCtx uint64

	metrics        *obs.Registry
	obsTickKernel  *obs.Histogram
	obsKernelNs    *obs.Gauge
	obsResidentDDR *obs.Gauge
	// sample.* metrics are registered only for sampled runners, so
	// exact-mode snapshots stay byte-identical (an absent metric never
	// appears in a snapshot).
	obsSampleWindows    *obs.Counter
	obsSampleDetailed   *obs.Counter
	obsSampleFunctional *obs.Counter
	obsSampleSkipped    *obs.Counter
	obsSampleCIHalf     *obs.Gauge

	accesses   uint64
	dramReads  [2]uint64
	dramWrites [2]uint64

	// id is the core index (its TLB). cores lists every core of the
	// machine, core 0 first; it is set on core 0 only. pend holds a
	// core's pulled but not yet executed accesses between co-running
	// turns. queue is the machine's bandwidth channels (nil unless
	// Config.Bandwidth), shared by every core.
	id    int
	cores []*Runner
	pend  []workload.Access
	queue *[2]channel
}

// newScaledCache returns a hierarchy config scaled for the MB-range
// footprints of the reproduction's workload instances: the cache must be
// small relative to the footprint or no DRAM traffic survives filtering
// (the paper's LLC-to-footprint ratio is ~16MB : 6-8GB).
func newScaledCache(footprintBytes uint64) cache.HierarchyConfig {
	// Target an LLC of ~1/256 of the footprint, rounded down to a power
	// of two (so sets divide evenly), clamped to [64KB, 8MB].
	llc := uint64(64 << 10)
	for llc*2 <= footprintBytes/256 && llc < 8<<20 {
		llc *= 2
	}
	way := llc / 8
	return cache.HierarchyConfig{
		L1:          cache.Config{SizeBytes: 8 << 10, Ways: 2},
		L2:          cache.Config{SizeBytes: int(llc / 8), Ways: 4},
		LLCWayBytes: int(way),
		LLCWays:     8,
	}
}

// NewRunner builds the machine for a workload: it sizes the tiers, the
// caches and the TLB from the footprint, allocates every page on CXL, and
// wires the controller's snoop path, with the latencies of
// tiermem.DefaultCosts. With co-running streams it builds one core per
// stream.
//
//m5:plumb Config
func NewRunner(cfg Config) (*Runner, error) {
	if cfg.Workload == nil {
		return nil, fmt.Errorf("sim: config needs a workload")
	}
	if cfg.DDRFraction == 0 {
		cfg.DDRFraction = 0.5
	}
	streams := append([]workload.Generator{cfg.Workload}, cfg.CoRunning...)
	pages := make([]uint64, len(streams))
	var totalPages uint64
	for i, g := range streams {
		pages[i] = (g.Footprint() + 4095) / 4096
		if pages[i] == 0 {
			return nil, fmt.Errorf("sim: workload %q has empty footprint", g.Name())
		}
		totalPages += pages[i]
	}
	nHuge := 0
	if cfg.HugePages {
		if len(cfg.CoRunning) > 0 {
			return nil, fmt.Errorf("sim: huge pages need a single core")
		}
		nHuge = int((pages[0] + mem.PagesPerHugePage - 1) / mem.PagesPerHugePage)
		if nHuge == 0 {
			return nil, fmt.Errorf("sim: footprint below one huge page")
		}
		pages[0] = uint64(nHuge) * mem.PagesPerHugePage
		totalPages = pages[0]
	}
	if cfg.CtxSwitchPeriodNs == 0 {
		cfg.CtxSwitchPeriodNs = 1_000_000
	}
	if err := cfg.Sampling.validate(); err != nil {
		return nil, err
	}
	if cfg.Sampling.Enabled() && (len(cfg.CoRunning) > 0 || cfg.Bandwidth) {
		return nil, fmt.Errorf("sim: the sampled tier models neither co-running cores nor bandwidth queues")
	}
	cfg.Sampling = cfg.Sampling.withDefaults()
	ddrLimit := uint64(float64(totalPages) * cfg.DDRFraction) //m5:floatok setup-time DDR capacity sizing
	if ddrLimit == 0 {
		ddrLimit = 1
	}
	// Physical DDR is provisioned at the limit+slack; the cgroup limit is
	// what constrains the workload.
	slack := uint64(mem.PagesPerHugePage)
	if cfg.Bandwidth {
		// COMPAT: the deleted multi-core engine provisioned 16 frames of
		// slack. The slack moves every CXL frame: with 512, the CI-settings
		// x8 m5 contention cell reads 182.261 M/s instead of 153.497.
		slack = 16
	}
	sys := tiermem.NewSystem(tiermem.Config{
		DDRPages:      ddrLimit + slack,
		CXLPages:      totalPages + 64,
		DDRLimitPages: ddrLimit,
		Cores:         len(streams),
		TLBEntries:    scaledTLBEntries(totalPages / uint64(len(streams))),
		Metrics:       cfg.Metrics.Scope("mem"),
	})
	costs := sys.Costs()
	ctrl := cxl.NewController(cxl.ControllerConfig{
		Span:      sys.CXLSpan(),
		EnablePAC: cfg.EnablePAC,
		EnableWAC: cfg.EnableWAC,
		HPT:       cfg.HPT,
		HWT:       cfg.HWT,
		Metrics:   cfg.Metrics.Scope("cxl"),
	})
	var queue *[2]channel
	if cfg.Bandwidth {
		queue = &[2]channel{
			tiermem.NodeDDR: newChannel(ddrBandwidthGBs, cfg.Metrics.Scope("chan.ddr")),
			tiermem.NodeCXL: newChannel(cxlBandwidthGBs, cfg.Metrics.Scope("chan.cxl")),
		}
	}
	// Every core's private hierarchy folds into one shared "cache" scope:
	// cores run one access at a time, so the shared counters stay
	// deterministic.
	cacheScope := cfg.Metrics.Scope("cache")
	cores := make([]*Runner, len(streams))
	for i, gen := range streams {
		var base tiermem.VPN
		var err error
		if cfg.HugePages {
			base, err = sys.AllocHuge(nHuge, tiermem.NodeCXL)
		} else {
			base, err = sys.Alloc(int(pages[i]), tiermem.NodeCXL)
		}
		if err != nil {
			return nil, fmt.Errorf("sim: allocating core %d arena: %w", i, err)
		}
		cacheCfg := newScaledCache(gen.Footprint())
		cacheCfg.Metrics = cacheScope
		c := &Runner{
			Sys:     sys,
			Ctrl:    ctrl,
			Cache:   cache.NewHierarchy(cacheCfg),
			gen:     gen,
			base:    base,
			opLat:   stats.NewReservoir(1<<15, 17),
			costs:   costs,
			batch:   make([]workload.Access, runnerBatch),
			ctxNs:   cfg.CtxSwitchPeriodNs,
			nextCtx: cfg.CtxSwitchPeriodNs,
			id:      i,
			queue:   queue,
		}
		c.latHit[cache.HitL1] = costs.L1HitNs
		c.latHit[cache.HitL2] = costs.L2HitNs
		c.latHit[cache.HitLLC] = costs.LLCHitNs
		c.latRead[tiermem.NodeDDR] = costs.DDRReadNs
		c.latRead[tiermem.NodeCXL] = costs.CXLReadNs
		cores[i] = c
	}
	r := cores[0]
	r.cfg = cfg
	r.cores = cores
	r.metrics = cfg.Metrics
	policyScope := cfg.Metrics.Scope("policy")
	r.obsTickKernel = policyScope.Histogram("tick_kernel_ns", tickKernelBounds)
	memScope := cfg.Metrics.Scope("mem")
	r.obsKernelNs = memScope.Gauge("kernel_ns")
	r.obsResidentDDR = memScope.Gauge("resident_ddr_pages")
	r.sampled = cfg.Sampling.Enabled()
	if r.sampled {
		r.phys = make([]mem.PhysAddr, runnerBatch)
		sampleScope := cfg.Metrics.Scope("sample")
		r.obsSampleWindows = sampleScope.Counter("windows_measured")
		r.obsSampleDetailed = sampleScope.Counter("accesses_detailed")
		r.obsSampleFunctional = sampleScope.Counter("accesses_functional")
		r.obsSampleSkipped = sampleScope.Counter("accesses_skipped")
		r.obsSampleCIHalf = sampleScope.Gauge("ci_halfwidth_ppm")
	}
	return r, nil
}

// scaledTLBEntries keeps TLB coverage proportional to the paper's
// platform: 1536 entries for a multi-GB footprint, scaled down (but at
// least 16 entries) for the reduced instances, so accessed bits keep
// flowing from TLB-miss page walks — the signal DAMON and MGLRU live on.
func scaledTLBEntries(footPages uint64) int {
	n := footPages / 64
	if n < 16 {
		n = 16
	}
	if n > 1536 {
		n = 1536
	}
	return int(n)
}

// Base returns the first VPN of the workload arena.
func (r *Runner) Base() tiermem.VPN { return r.base }

// SetDaemon installs the migration daemon (nil = no page migration).
func (r *Runner) SetDaemon(d Daemon) {
	r.daemon = d
	if d != nil {
		r.nextTick = r.clockNs + d.PeriodNs()
	}
}

// AttachMissSink adds an observer of the DRAM access stream (the LLC-miss
// stream of every core): PEBS samplers, trace recorders, and the like.
// CXL-side functions (PAC/WAC/HPT/HWT) are attached to the controller
// instead and see only device traffic, as in hardware.
func (r *Runner) AttachMissSink(s trace.Sink) {
	for _, c := range r.cores {
		c.sinks = append(c.sinks, s)
	}
}

// SetWordRemap installs a memory-controller-level word remapper (nil
// disables). The remapper decides, per LLC miss, which tier serves the
// word — the IFMM swap path.
func (r *Runner) SetWordRemap(m WordRemap) {
	for _, c := range r.cores {
		c.remap = m
	}
}

// runnerBatch is the number of accesses the batched loop pulls from the
// generator per refill. It never changes results: batching only
// amortizes generator dispatch.
const runnerBatch = 1024

// stepBatch executes up to max accesses (bounded by one internal batch)
// and returns how many ran; 0 means the workload stream has ended. It is
// access-for-access equivalent to a per-access loop — the batching only
// amortizes generator dispatch and hoists loop-invariant branches.
func (r *Runner) stepBatch(max int) int {
	if max <= 0 {
		return 0
	}
	buf := r.batch[:min(max, runnerBatch)]
	n := workload.NextBatch(r.gen, buf)
	if n == 0 {
		return 0
	}
	r.runBatch(buf[:n])
	return n
}

// runBatch is the batched hot loop of one core. Loop-invariant state
// (sink presence, remapper, daemon, context-switch period, arena base) is
// hoisted into locals, while the core index and the bandwidth queues are
// read where they are used; the hit-level and tier latencies are table
// lookups; and
// one trace.Access scratch value feeds both the CXL snoop path and the
// miss-sink fan-out. The per-access reference in engine_test.go pins the
// equivalence.
//
//m5:hotpath
func (r *Runner) runBatch(accs []workload.Access) {
	var (
		base     = r.base.Addr()
		hasSinks = len(r.sinks) > 0
		remap    = r.remap
		daemon   = r.daemon
		ctxOn    = r.ctxNs > 0
		scratch  trace.Access
		tr       tiermem.TranslateResult
	)
	for i := range accs {
		a := &accs[i]
		r.accesses++
		kernelBefore := r.Sys.KernelNs()
		va := base + tiermem.VirtAddr(a.Offset)
		r.Sys.TranslateInto(r.id, va, a.Write, &tr)
		r.clockNs += tr.ExtraNs

		res := r.Cache.Access(tr.Phys, a.Write)
		if res.Level != cache.HitMemory {
			r.clockNs += r.latHit[res.Level]
		} else {
			node := r.Sys.NodeOfAddr(tr.Phys)
			if remap != nil {
				served, extra := remap.Serve(tr.Phys.Word(), node)
				r.clockNs += extra
				node = served
			}
			r.Sys.Node(node).CountRead() //m5:unitcredit exact engine: one access, weight 1
			r.dramReads[node]++
			if r.queue != nil {
				r.clockNs += r.queue[node].serve(r.clockNs)
			}
			r.clockNs += r.latRead[node]
			if node == tiermem.NodeCXL || hasSinks {
				scratch = trace.Access{Time: r.clockNs, Addr: tr.Phys, Write: a.Write}
				if node == tiermem.NodeCXL {
					r.Ctrl.Device.Access(scratch) //m5:unitcredit exact engine: one access, weight 1
				}
				if hasSinks {
					r.sinks.Observe(scratch) //m5:unitcredit exact engine: one access, weight 1
				}
			}
		}
		for _, wb := range res.Writeback {
			node := r.Sys.CountDRAMAccess(wb, true)
			r.dramWrites[node]++
			r.clockNs += r.costs.DRAMWriteNs
			if r.queue != nil {
				r.queue[node].serve(r.clockNs) // occupies the channel; the core does not wait
			}
			if node == tiermem.NodeCXL || hasSinks {
				scratch = trace.Access{Time: r.clockNs, Addr: wb, Write: true}
				if node == tiermem.NodeCXL {
					r.Ctrl.Device.Access(scratch) //m5:unitcredit exact engine: one access, weight 1
				}
				if hasSinks {
					r.sinks.Observe(scratch) //m5:unitcredit exact engine: one access, weight 1
				}
			}
		}

		if a.OpEnd {
			r.opLat.Add(float64(r.clockNs - r.opStart))
			r.opStart = r.clockNs
		}

		// Periodic context switch: flush the TLB so accessed bits keep
		// being set by fresh page walks (the passive invalidation path of
		// §2.1).
		if ctxOn && r.clockNs >= r.nextCtx {
			r.Sys.TLB(r.id).Flush()
			r.nextCtx = r.clockNs + r.ctxNs
		}

		// The migration daemon shares core 0.
		if daemon != nil && r.clockNs >= r.nextTick {
			tickKernelBefore := r.Sys.KernelNs()
			daemon.Tick(r.clockNs)
			r.nextTick = r.clockNs + daemon.PeriodNs()
			r.obsTickKernel.Observe(r.Sys.KernelNs() - tickKernelBefore)
		}

		// All kernel mm work this access triggered — fault handling (with
		// any inline ANB promotion), PTE scans, shootdowns,
		// migrate_pages(), and the daemon tick itself — stalls this core
		// for exactly the kernel time it consumed (the paper pins kernel
		// threads to the workload core, §6).
		r.clockNs += r.Sys.KernelNs() - kernelBefore
	}
}

// runCores drives every core of a co-running machine up to n accesses
// further in causal order: each turn runs one access on the core with the
// smallest clock (ties to the lower index), so shared state — page
// tables, trackers, bandwidth queues, the daemon — is touched in global
// time order. A core stops early only when its stream ends.
func (r *Runner) runCores(n int) {
	left := make([]int, len(r.cores))
	for i := range left {
		left[i] = n
	}
	for {
		pick := -1
		for i, c := range r.cores {
			if left[i] > 0 && (pick < 0 || c.clockNs < r.cores[pick].clockNs) {
				pick = i
			}
		}
		if pick < 0 {
			return
		}
		c := r.cores[pick]
		if len(c.pend) == 0 {
			k := workload.NextBatch(c.gen, c.batch)
			if k == 0 {
				left[pick] = 0
				continue
			}
			c.pend = c.batch[:k]
		}
		c.runBatch(c.pend[:1])
		c.pend = c.pend[1:]
		left[pick]--
	}
}

// Run executes n accesses on every core (or until a stream ends) and
// returns metrics for that span. Internally it drives the batched loop;
// the result is access-for-access identical to a per-access loop. With
// Config.Sampling set to "sampled" the span runs through the
// tiered-fidelity scheduler instead (sampling.go) and the headline time
// is a windowed estimate.
func (r *Runner) Run(n int) Result {
	if r.sampled {
		return r.runSampled(n)
	}
	span := r.beginSpan()
	if len(r.cores) > 1 {
		r.runCores(n)
	} else {
		r.runExactSpan(n)
	}
	return r.endSpan(span)
}

// spanStart is the counter baseline captured at the start of one Run span.
type spanStart struct {
	clockNs  []uint64 // per core
	kernelNs uint64
	accesses uint64
	reads    [2]uint64
	writes   [2]uint64
}

func (r *Runner) beginSpan() spanStart {
	span := spanStart{kernelNs: r.Sys.KernelNs()}
	for _, c := range r.cores {
		c.opLat.Reset()
		span.clockNs = append(span.clockNs, c.clockNs)
	}
	span.accesses, span.reads, span.writes = r.traffic()
	return span
}

// traffic sums the access and DRAM traffic counters over every core.
func (r *Runner) traffic() (accesses uint64, reads, writes [2]uint64) {
	for _, c := range r.cores {
		accesses += c.accesses
		for node := range reads {
			reads[node] += c.dramReads[node]
			writes[node] += c.dramWrites[node]
		}
	}
	return accesses, reads, writes
}

// endSpan assembles the span's Result from the counter deltas. Across
// co-running cores the elapsed time is the slowest core's span and the
// op-latency percentiles are the worst core's.
func (r *Runner) endSpan(span spanStart) Result {
	accesses, reads, writes := r.traffic()
	res := Result{
		Workload:   r.gen.Name(),
		Accesses:   accesses - span.accesses,
		KernelNs:   r.Sys.KernelNs() - span.kernelNs,
		Promotions: r.Sys.Promotions(),
		Demotions:  r.Sys.Demotions(),
	}
	if r.daemon != nil {
		res.Daemon = r.daemon.Name()
	} else {
		res.Daemon = "none"
	}
	for node := 0; node < 2; node++ {
		res.DRAMReads[node] = reads[node] - span.reads[node]
		res.DRAMWrites[node] = writes[node] - span.writes[node]
	}
	for i, c := range r.cores {
		res.ElapsedNs = max(res.ElapsedNs, c.clockNs-span.clockNs[i])
		if c.opLat.Seen() > 0 {
			res.OpCount += c.opLat.Seen()
			res.P50OpNs = max(res.P50OpNs, c.opLat.Percentile(50))
			res.P99OpNs = max(res.P99OpNs, c.opLat.Percentile(99))
		}
	}
	if res.ElapsedNs > 0 {
		res.AccessesPerSec = float64(res.Accesses) * 1e9 / float64(res.ElapsedNs) //m5:floatok report-side throughput derivation from integer counters
	}
	if r.metrics != nil {
		// Gauges are point-in-time state, set once per span end so the
		// access loop stays untouched.
		r.obsKernelNs.Set(r.Sys.KernelNs())
		r.obsResidentDDR.Set(r.Sys.ResidentPages(tiermem.NodeDDR))
		res.Obs = r.metrics.Snapshot()
	}
	return res
}

// Close releases every core's workload generator.
func (r *Runner) Close() {
	for _, c := range r.cores {
		c.gen.Close()
	}
}

// Result summarizes one measured span.
type Result struct {
	Workload string
	Daemon   string
	// Accesses is the number of workload memory operations executed,
	// summed over every core.
	Accesses uint64
	// ElapsedNs is simulated wall time — the end-to-end performance
	// metric (inverse of throughput). With co-running cores it is the
	// slowest core's (SPECrate reports the slowest copy).
	ElapsedNs uint64
	// KernelNs is CPU time consumed by kernel mm work in the span — the
	// §4.2 identification-overhead metric.
	KernelNs uint64
	// DRAMReads/DRAMWrites per node (index by tiermem.NodeID).
	DRAMReads  [2]uint64
	DRAMWrites [2]uint64
	// Promotions/Demotions are cumulative system totals at span end.
	Promotions uint64
	Demotions  uint64
	// OpCount and latency percentiles are present for KVS workloads.
	// With co-running cores OpCount sums every core's operations and the
	// percentiles are the worst core's.
	OpCount uint64
	P50OpNs float64
	P99OpNs float64
	// AccessesPerSec is the throughput.
	AccessesPerSec float64
	// Obs is the observability snapshot at span end (nil unless
	// Config.Metrics was set). Counter values are cumulative since the
	// runner was built, not since the span start.
	Obs *obs.Snapshot
	// Sampling is non-nil only for sampled-mode spans: the fidelity-tier
	// tag plus the estimate, its confidence interval, and the window
	// counts behind it. Exact spans carry nil, so a consumer can always
	// tell which tier produced a Result.
	Sampling *SamplingInfo
}

// Speedup returns how much faster this result ran than the baseline
// (ratio of baseline elapsed time to this elapsed time).
func (r Result) Speedup(baseline Result) float64 {
	if r.ElapsedNs == 0 {
		return 0
	}
	return float64(baseline.ElapsedNs) / float64(r.ElapsedNs) //m5:floatok report-side speedup ratio from integer clocks
}

// CXLReadShare returns the fraction of DRAM reads served by CXL — the
// quantity migration is trying to shrink.
func (r Result) CXLReadShare() float64 {
	tot := r.DRAMReads[tiermem.NodeDDR] + r.DRAMReads[tiermem.NodeCXL]
	if tot == 0 {
		return 0
	}
	return float64(r.DRAMReads[tiermem.NodeCXL]) / float64(tot) //m5:floatok report-side share derivation from integer counters
}
