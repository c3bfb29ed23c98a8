package m5

import (
	"m5/internal/tiermem"
)

// This file is the policy zoo the M5 platform exists to enable (§5.2
// "empowering them to develop diverse policies"): alternative schedulers
// built from the same Monitor/Nominator/Promoter parts as the stock
// Elector. Each satisfies the simulator's daemon contract (Name /
// PeriodNs / Tick).

const (
	// zooPeriodNs is the static and density-filter policies' fixed period
	// and the threshold policy's engaged period.
	zooPeriodNs = 1_000_000
	// thresholdMaxPeriodNs caps the threshold policy's disengaged
	// backoff.
	thresholdMaxPeriodNs = 64 * zooPeriodNs
	// thresholdRatio is the density ratio bw_den(CXL)/bw_den(DDR) at or
	// above which the threshold policy migrates: 1.0, migrate whenever
	// CXL is at least as dense as DDR.
	thresholdRatio = 1.0
	// minDenseWords is the density filter's mask-popcount admission bar.
	minDenseWords = 2
)

// StaticPolicy migrates every nomination at a fixed period — the simplest
// possible consumer of HPT/HWT, useful as a control when studying what the
// adaptive Elector adds.
type StaticPolicy struct {
	nom      *Nominator
	promoter *Promoter
	migrated uint64
	ticks    uint64
}

// NewStaticPolicy builds the policy.
func NewStaticPolicy(sys *tiermem.System, nom *Nominator) *StaticPolicy {
	return &StaticPolicy{nom: nom, promoter: NewPromoter(sys)}
}

// Name implements the daemon contract.
func (p *StaticPolicy) Name() string { return "m5-static-" + p.nom.Mode().String() }

// PeriodNs implements the daemon contract.
func (p *StaticPolicy) PeriodNs() uint64 { return zooPeriodNs }

// Tick implements the daemon contract.
func (p *StaticPolicy) Tick(nowNs uint64) {
	p.ticks++
	p.migrated += uint64(p.promoter.Promote(p.nom.Nominate()))
}

// Migrated returns total pages promoted.
func (p *StaticPolicy) Migrated() uint64 { return p.migrated }

// Stats implements tiermem.Policy.
func (p *StaticPolicy) Stats() tiermem.PolicyStats {
	return tiermem.PolicyStats{
		Ticks:      p.ticks,
		Identified: p.nom.Nominated(),
		Promoted:   p.migrated,
		PeriodNs:   zooPeriodNs,
	}
}

// ThresholdPolicy migrates only while bw_den(CXL)/bw_den(DDR) reaches
// thresholdRatio, with hysteresis on the period: engaged at zooPeriodNs,
// backed off multiplicatively up to thresholdMaxPeriodNs when disengaged.
// It is the Guideline 1 signal used directly, without Algorithm 1's
// frequency scaling.
type ThresholdPolicy struct {
	mon      *Monitor
	nom      *Nominator
	promoter *Promoter

	period   uint64
	migrated uint64
	engaged  uint64
	skipped  uint64
}

// NewThresholdPolicy builds the policy.
func NewThresholdPolicy(sys *tiermem.System, nom *Nominator) *ThresholdPolicy {
	return &ThresholdPolicy{
		mon:      NewMonitor(sys),
		nom:      nom,
		promoter: NewPromoter(sys),
		period:   zooPeriodNs,
	}
}

// Name implements the daemon contract.
func (p *ThresholdPolicy) Name() string { return "m5-threshold-" + p.nom.Mode().String() }

// PeriodNs implements the daemon contract.
func (p *ThresholdPolicy) PeriodNs() uint64 { return p.period }

// Tick implements the daemon contract.
func (p *ThresholdPolicy) Tick(nowNs uint64) {
	stats := p.mon.Sample(nowNs)
	ddr := stats.BWDen(tiermem.NodeDDR)
	cxl := stats.BWDen(tiermem.NodeCXL)
	// Engage while filling, and whenever CXL is at least thresholdRatio
	// times as dense as DDR (an idle DDR counts as infinitely less dense).
	engage := stats.DDRFreePages > 0 ||
		(cxl > 0 && (ddr == 0 || cxl/ddr >= thresholdRatio))
	if !engage {
		p.skipped++
		p.period *= 2
		if p.period > thresholdMaxPeriodNs {
			p.period = thresholdMaxPeriodNs
		}
		return
	}
	p.engaged++
	p.period = zooPeriodNs
	p.migrated += uint64(p.promoter.Promote(p.nom.Nominate()))
}

// Migrated returns total pages promoted.
func (p *ThresholdPolicy) Migrated() uint64 { return p.migrated }

// Engaged returns ticks that migrated.
func (p *ThresholdPolicy) Engaged() uint64 { return p.engaged }

// Skipped returns ticks that backed off.
func (p *ThresholdPolicy) Skipped() uint64 { return p.skipped }

// Stats implements tiermem.Policy.
func (p *ThresholdPolicy) Stats() tiermem.PolicyStats {
	return tiermem.PolicyStats{
		Ticks:      p.engaged + p.skipped,
		Identified: p.nom.Nominated(),
		Promoted:   p.migrated,
		Skipped:    p.skipped,
		PeriodNs:   p.period,
	}
}

// DensityFilterPolicy consumes the HPT-driven Nominator's hot-word masks
// and migrates only pages with at least minDenseWords known-hot words —
// Guideline 3 as a standalone policy: prefer dense hot pages, skip sparse
// ones whose migration would pollute the cache hierarchy for little gain.
type DensityFilterPolicy struct {
	mon      *Monitor
	nom      *Nominator
	promoter *Promoter

	migrated uint64
	filtered uint64
	ticks    uint64
}

// NewDensityFilterPolicy builds the policy; the nominator must be
// HPT-driven (it needs masks).
func NewDensityFilterPolicy(sys *tiermem.System, nom *Nominator) *DensityFilterPolicy {
	return &DensityFilterPolicy{
		mon:      NewMonitor(sys),
		nom:      nom,
		promoter: NewPromoter(sys),
	}
}

// Name implements the daemon contract.
func (p *DensityFilterPolicy) Name() string { return "m5-density" }

// PeriodNs implements the daemon contract.
func (p *DensityFilterPolicy) PeriodNs() uint64 { return zooPeriodNs }

// Tick implements the daemon contract.
func (p *DensityFilterPolicy) Tick(nowNs uint64) {
	p.ticks++
	p.mon.Sample(nowNs)
	var dense []HotPage
	for _, h := range p.nom.Nominate() {
		// Pages nominated by HPT alone (no mask data) pass through: the
		// filter only rejects pages *known* to be sparse.
		if h.Mask != 0 && h.DenseWords() < minDenseWords {
			p.filtered++
			continue
		}
		dense = append(dense, h)
	}
	p.migrated += uint64(p.promoter.Promote(dense))
}

// Migrated returns total pages promoted.
func (p *DensityFilterPolicy) Migrated() uint64 { return p.migrated }

// Filtered returns nominations rejected as sparse.
func (p *DensityFilterPolicy) Filtered() uint64 { return p.filtered }

// Stats implements tiermem.Policy. Skipped counts sparse-filtered
// nominations.
func (p *DensityFilterPolicy) Stats() tiermem.PolicyStats {
	return tiermem.PolicyStats{
		Ticks:      p.ticks,
		Identified: p.nom.Nominated(),
		Promoted:   p.migrated,
		Skipped:    p.filtered,
		PeriodNs:   zooPeriodNs,
	}
}
