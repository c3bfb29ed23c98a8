package m5

import (
	"math"

	"m5/internal/tiermem"
)

const (
	// fDefault is the default migration frequency f_default in Hz of
	// simulated time: 1kHz, a 1ms default period (the paper simply tries
	// ~1 and scales it).
	fDefault = 1000
	// minPeriodNs / maxPeriodNs clamp the adaptive period so a runaway
	// density ratio cannot spin or stall the manager. The 10ms cap is
	// cheap: a query costs a handful of MMIO reads (~microseconds), so
	// waking at 100Hz is effectively free and keeps the manager
	// responsive to phase changes — the §7.2 observation that hot sets
	// drift between intervals.
	minPeriodNs = 100_000
	maxPeriodNs = 10_000_000
	// improvementEps is the minimum relative rel_bw_den(DDR) improvement
	// that counts as "increasing" for the Guideline 2 gate (1%). Without
	// it, measurement noise at equilibrium opens the gate and the
	// resulting promote/demote churn costs more than it returns.
	improvementEps = 0.01
)

// ElectorConfig holds Algorithm 1's tunables.
type ElectorConfig struct {
	// N is the fscale exponent: fscale(x) = x^N, the paper's y = x^n with
	// n in 3..6 (§7.2 tries 3 to 6 and picks the best).
	N float64
	// MinNominationCount applies the paper's §7.2 break-even arithmetic
	// at equilibrium: once DDR is full, a nomination is only worth a
	// promote+demote pair if its epoch access count suggests it will
	// amortize the migration (54µs / 170ns ≈ 318 accesses). During the
	// fill phase the filter is off — free fast memory always pays.
	// Default: the cost model's break-even count.
	MinNominationCount uint64
}

func (c ElectorConfig) withDefaults() ElectorConfig {
	if c.N == 0 {
		c.N = 4
	}
	if c.MinNominationCount == 0 {
		c.MinNominationCount = tiermem.DefaultCosts().MigrationBreakEvenAccesses()
	}
	return c
}

// Elector implements Algorithm 1: each step it samples Monitor, scales the
// migration frequency by fscale(bw_den(CXL)/bw_den(DDR)) (Guideline 1),
// and invokes Promoter(Nominator()) only when rel_bw_den(DDR) improved
// over the previous period (Guideline 2).
type Elector struct {
	cfg      ElectorConfig
	mon      *Monitor
	nom      *Nominator
	promoter *Promoter

	prevRelBWDen float64
	steps        uint64
	migrations   uint64
	skipped      uint64
}

// NewElector wires the three components.
func NewElector(mon *Monitor, nom *Nominator, promoter *Promoter, cfg ElectorConfig) *Elector {
	return &Elector{cfg: cfg.withDefaults(), mon: mon, nom: nom, promoter: promoter}
}

// fscale maps the density ratio through the monotone scaling function.
func (e *Elector) fscale(x float64) float64 {
	if x <= 0 {
		return 1e-3
	}
	return math.Pow(x, e.cfg.N)
}

// Step runs one Algorithm 1 iteration at the given time and returns the
// period T (ns) to sleep until the next iteration.
func (e *Elector) Step(nowNs uint64) uint64 {
	e.steps++
	stats := e.mon.Sample(nowNs)

	// Line 2: T = 1 / (fscale(bw_den(CXL)/bw_den(DDR)) * f_default).
	ratio := 1.0
	if d := stats.BWDen(tiermem.NodeDDR); d > 0 {
		ratio = stats.BWDen(tiermem.NodeCXL) / d
	}
	freq := e.fscale(ratio) * fDefault
	var period uint64
	if freq <= 0 {
		period = maxPeriodNs
	} else {
		period = uint64(1e9 / freq)
	}
	if period < minPeriodNs {
		period = minPeriodNs
	}
	if period > maxPeriodNs {
		period = maxPeriodNs
	}
	// Fill phase: while DDR has cgroup headroom, never slow below the
	// default frequency. Early promotions of the very hottest pages make
	// bw_den(DDR) >> bw_den(CXL), which would otherwise back the manager
	// off to the maximum period with fast memory mostly unused.
	if deflt := uint64(1e9 / fDefault); stats.DDRFreePages > 0 && period > deflt {
		period = deflt
	}

	// Lines 4-8: migrate only while rel_bw_den(DDR) keeps improving.
	// During the fill phase (free DDR under the cgroup limit) migration
	// is unconditional: pulling any hot page into unused fast memory
	// cannot hurt, and the paper's runs fill DDR before the equilibrium
	// demote-one-promote-one regime begins (§7.2).
	rel := stats.RelBWDen(tiermem.NodeDDR)
	if stats.DDRFreePages > 0 || rel > e.prevRelBWDen*(1+improvementEps) || e.steps == 1 {
		noms := e.nom.Nominate()
		if stats.DDRFreePages == 0 {
			// Equilibrium: each promotion displaces a DDR page, so apply
			// the break-even filter (§7.2: ~318 accesses amortize one
			// migration; TC-like flat workloads fail it, exactly the
			// "conservatively migrate" case the paper identifies).
			kept := noms[:0]
			for _, h := range noms {
				if h.Count >= e.cfg.MinNominationCount {
					kept = append(kept, h)
				}
			}
			noms = kept
		}
		n := e.promoter.Promote(noms)
		e.migrations += uint64(n)
		if n == 0 {
			e.skipped++
		}
	} else {
		e.skipped++
	}
	e.prevRelBWDen = rel
	return period
}

// Steps returns how many Algorithm 1 iterations have run.
func (e *Elector) Steps() uint64 { return e.steps }

// Migrations returns pages migrated across all steps.
func (e *Elector) Migrations() uint64 { return e.migrations }

// Skipped returns steps where migration was withheld (Guideline 2).
func (e *Elector) Skipped() uint64 { return e.skipped }
