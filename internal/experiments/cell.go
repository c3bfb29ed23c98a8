package experiments

import (
	"fmt"
	"math"

	"m5/internal/ifmm"
	m5mgr "m5/internal/m5"
	"m5/internal/mem"
	"m5/internal/obs"
	"m5/internal/policy"
	"m5/internal/sim"
	"m5/internal/tiermem"
	"m5/internal/tracker"
	"m5/internal/workload"
)

// Cell is one experiment machine: a benchmark's stream on the
// tiered-memory host with an M5-capable CXL controller (§4.1, §7.2), the
// migration solution it runs, and the few machine features a harness
// varies. A harness is a list of Cells plus a fold of their results into
// its rows; newCellRunner is the package's one place that assembles a
// simulator from them. Beyond Bench, the zero value is the bare
// no-migration machine.
type Cell struct {
	// Bench names the catalog workload (every harness).
	Bench string
	// Gen, when set, is the access stream in place of Bench's; the built
	// runner owns it (ext-phase's budget-sized YCSB-D).
	Gen workload.Generator
	// Arm is the migration solution's policy-registry name; "" and "none"
	// install no daemon. The arm's default trackers are attached to the
	// controller (fig3, sec42, fig8, fig9, ablations, ext-*).
	Arm string
	// Profile runs the arm in §4.1 profiling mode: it identifies hot
	// pages but never migrates, recording a hot list capped at 1/16 of
	// the footprint, like the paper's 128K pages over ~2M (fig3, sec42,
	// fig8).
	Profile bool
	// HPT attaches this HPT in place of the arm's default (fig8's tracker
	// configurations, sec42's daemon-free warm machine).
	HPT *tracker.Config
	// Elector tunes the M5 arms' Algorithm 1 (the fscale ablation,
	// ext-phase).
	Elector m5mgr.ElectorConfig
	// PEBSRate, when positive, makes the arm the PEBS sampler at one
	// sample per PEBSRate LLC misses in place of the registry's 1/100
	// (ext-pebs's coarse arm).
	PEBSRate uint64
	// IFMM installs word-swap flat memory mode with a slot budget of the
	// DDR cgroup limit in words (ext-ifmm).
	IFMM bool
	// Huge maps the arena as 2MB pages (ext-huge).
	Huge bool
	// PAC / WAC attach the controller's exact per-page / per-word
	// counters (fig3, fig8, fig10 / fig4).
	PAC, WAC bool
	// DDRFraction sizes the DDR cgroup limit against the footprint; 0
	// keeps the simulator's half (sec52).
	DDRFraction float64
	// Instances, when positive, co-runs that many copies of Bench on
	// seeds Seed, Seed+1, ... over the shared, bandwidth-queued tiers:
	// the SPECrate setup of §6 (ext-contention).
	Instances int
}

// arm is the registry name of the cell's solution.
func (c Cell) arm() string {
	if c.Arm == "" {
		return "none"
	}
	return c.Arm
}

// String labels the cell in error messages.
func (c Cell) String() string {
	s := c.Bench + "/" + c.arm()
	if c.IFMM {
		s += "+ifmm"
	}
	if c.Huge {
		s += "+2mb"
	}
	if c.Instances > 0 {
		s += fmt.Sprintf(" x%d", c.Instances)
	}
	return s
}

// benchGrid crosses benchmarks with per-benchmark variants,
// benchmark-major: cell i is variants[i%len(variants)] on
// benches[i/len(variants)].
func benchGrid(benches []string, variants ...Cell) []Cell {
	cells := make([]Cell, 0, len(benches)*len(variants))
	for _, bench := range benches {
		for _, v := range variants {
			v.Bench = bench
			cells = append(cells, v)
		}
	}
	return cells
}

// newCellRunner builds c's machine with its word remapper and daemon
// installed, and returns the daemon (nil without migration). reg, when
// non-nil, is the cell's observability registry.
func (p Params) newCellRunner(c Cell, reg *obs.Registry) (*sim.Runner, tiermem.Policy, error) {
	gen := c.Gen
	if gen == nil {
		var err error
		if gen, err = p.newGenerator(c.Bench); err != nil {
			return nil, nil, err
		}
	}
	streams := []workload.Generator{gen}
	closeAll := func() {
		for _, g := range streams {
			g.Close()
		}
	}
	for i := 1; i < c.Instances; i++ {
		q := p
		q.Seed = p.Seed + int64(i)
		g, err := q.newGenerator(c.Bench)
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		streams = append(streams, g)
	}
	cfg := sim.Config{
		Workload:    streams[0],
		CoRunning:   streams[1:],
		DDRFraction: c.DDRFraction,
		HPT:         c.HPT,
		EnablePAC:   c.PAC,
		EnableWAC:   c.WAC,
		HugePages:   c.Huge,
		Metrics:     reg,
	}
	if cfg.HPT == nil && policy.NeedsHPT(c.arm()) {
		cfg.HPT = policy.DefaultHPT()
	}
	if policy.NeedsHWT(c.arm()) {
		cfg.HWT = policy.DefaultHWT()
	}
	if c.Instances > 0 {
		// COMPAT: the deleted multi-core engine queued at every core
		// count, x1 included, and never flushed TLBs on a context
		// switch; no deadline is ever reached.
		cfg.Bandwidth = true
		cfg.CtxSwitchPeriodNs = math.MaxUint64
	}
	p.applySpeed(&cfg)
	r, err := sim.NewRunner(cfg)
	if err != nil {
		closeAll()
		return nil, nil, err
	}
	d, err := c.install(r, reg, streams[0].Footprint())
	if err != nil {
		r.Close()
		return nil, nil, err
	}
	return r, d, nil
}

// install puts c's word remapper and daemon on a built machine — fresh,
// or forked from a daemon-free warm checkpoint (sec42) — and returns the
// daemon. footprint, in bytes, sizes the CPU-driven solutions' sampling
// rates, as the kernel scales scan budgets with the address space.
func (c Cell) install(r *sim.Runner, reg *obs.Registry, footprint uint64) (tiermem.Policy, error) {
	if c.IFMM {
		slots := r.Sys.Node(tiermem.NodeDDR).Limit() * 64 // pages -> words
		r.SetWordRemap(ifmm.New(r.Sys.CXLSpan(), max(slots, 1), 0))
	}
	footPages := int(footprint / 4096)
	env := policy.Env{
		Sys:            r.Sys,
		Ctrl:           r.Ctrl,
		FootPages:      footPages,
		Migrate:        !c.Profile,
		AttachMissSink: r.AttachMissSink,
		Metrics:        reg.Scope("policy"),
		Elector:        c.Elector,
	}
	if c.Profile {
		env.HotListCap = max(footPages/16, 8)
	}
	var (
		d   tiermem.Policy
		err error
	)
	if c.PEBSRate > 0 {
		d, err = policy.NewPEBS(env, c.PEBSRate)
	} else {
		d, err = policy.New(c.arm(), env)
	}
	if err != nil {
		return nil, err
	}
	if d != nil {
		r.SetDaemon(d)
	}
	return d, nil
}

// runEach runs every cell across p.Parallel workers and returns the
// results in cell order, labelling errors with the harness and cell.
func runEach[T any](p Params, harness string, cells []Cell, run func(Cell) (T, error)) ([]T, error) {
	return mapCells(p, len(cells), func(i int) (T, error) {
		v, err := run(cells[i])
		if err != nil {
			return v, fmt.Errorf("%s %s: %w", harness, cells[i], err)
		}
		return v, nil
	})
}

// runCell measures c the way most harnesses do: warm to migration steady
// state, then run p.Accesses. Under CollectObs the cell owns a registry
// whose snapshot rides back on Result.Obs.
func (p Params) runCell(c Cell) (sim.Result, error) {
	var reg *obs.Registry
	if p.CollectObs {
		reg = obs.New()
	}
	r, _, err := p.newCellRunner(c, reg)
	if err != nil {
		return sim.Result{}, err
	}
	defer r.Close()
	warmToSteadyState(r, p.Warmup)
	return r.Run(p.Accesses), nil
}

// warmToSteadyState warms a runner until migration reaches equilibrium
// and returns the accesses it ran: the paper's runs are long enough that
// the one-time DDR fill amortizes; scaled runs warm up in chunks until DDR
// stops changing (or a bounded number of chunks), so the measured span
// reflects equilibrium behaviour for every policy.
func warmToSteadyState(r *sim.Runner, chunk int) uint64 {
	warm := r.Run(chunk).Accesses
	prevPromos := r.Sys.Promotions()
	for i := 0; i < 20; i++ {
		if r.Sys.Node(tiermem.NodeDDR).FreePages() == 0 {
			break
		}
		warm += r.Run(chunk).Accesses
		if r.Sys.Promotions() == prevPromos {
			break // the policy has stopped filling; measure as-is
		}
		prevPromos = r.Sys.Promotions()
	}
	return warm
}

// profileCell scores c's arm in profiling mode against PAC (§4.1 steps
// S4-S5): after p.Warmup accesses, at each of p.Points execution points,
// the summed exact counts of the pages the arm identified over the summed
// counts of the exact same-size top-K.
func (p Params) profileCell(c Cell) (Ratio, error) {
	c.Profile, c.PAC = true, true
	r, d, err := p.newCellRunner(c, nil)
	if err != nil {
		return Ratio{}, err
	}
	defer r.Close()
	prof, ok := d.(policy.Profiler)
	if !ok {
		return Ratio{}, fmt.Errorf("policy %q records no hot-page list", c.arm())
	}
	r.Run(p.Warmup)
	samples := make([]float64, 0, p.Points)
	for i := 0; i < p.Points; i++ {
		r.Run(p.Accesses / p.Points)
		if ratio := pacRatio(r, prof.HotPFNs()); ratio > 0 {
			samples = append(samples, ratio)
		}
	}
	return NewRatio(samples), nil
}

// pacRatio scores a hot-page list against PAC: the summed exact counts of
// the identified pages over the summed counts of the exact same-size
// top-K.
func pacRatio(r *sim.Runner, pfns []mem.PFN) float64 {
	keys := make([]uint64, len(pfns))
	for i, p := range pfns {
		keys[i] = uint64(p)
	}
	return r.Ctrl.PAC.AccessCountRatio(keys)
}
