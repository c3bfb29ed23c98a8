// Package dram models DRAM device timing at the row-buffer level — the
// role Ramulator plays in the paper's trace methodology (§7.1). Each
// channel has banks with open-row state: an access to the open row is a
// row-buffer hit (CAS only), to a closed bank a miss (RAS+CAS), and to a
// different row a conflict (PRE+RAS+CAS). The CXL device's single
// DDR4-2666 channel and the host's DDR5 channels get different geometry
// and timing (Table 2).
//
// The model is deliberately above cycle level: no command bus, refresh, or
// timing-window constraints — those do not change which pages are hot or
// what migration saves — but row locality does change the *effective*
// latency gap between streaming (row-friendly) and scattered (row-hostile)
// access patterns, which is why sparse hot pages cost more per useful byte.
package dram

import (
	"fmt"

	"m5/internal/mem"
	"m5/internal/obs"
)

// Timing holds the three access-outcome latencies in nanoseconds.
type Timing struct {
	// RowHitNs is CAS-only: the row is already open.
	RowHitNs uint64
	// RowMissNs is RAS+CAS: the bank was idle.
	RowMissNs uint64
	// RowConflictNs is PRE+RAS+CAS: another row was open.
	RowConflictNs uint64
}

// Geometry describes the channel's interleaving.
type Geometry struct {
	// Banks is the number of banks in the channel.
	Banks int
	// RowBytes is the row-buffer size (bytes of consecutive physical
	// address space mapped to one row).
	RowBytes uint64
}

// Config assembles one channel model.
type Config struct {
	Geometry Geometry
	Timing   Timing
	// Metrics, when non-nil, receives per-channel counters (hits,
	// misses, conflicts, busy_ns). Handles are interned at New; the
	// Access hot path pays only a nil check when disabled.
	Metrics *obs.Registry
}

// DDR4Device returns the CXL device's on-board DDR4-2666 channel
// (16 banks, 8KB rows; tCL≈14ns, tRCD≈14ns, tRP≈14ns).
func DDR4Device() Config {
	return Config{
		Geometry: Geometry{Banks: 16, RowBytes: 8 << 10},
		Timing:   Timing{RowHitNs: 14, RowMissNs: 28, RowConflictNs: 42},
	}
}

// DDR5Host returns one host DDR5-4800 channel (32 banks, 8KB rows;
// slightly tighter timings).
func DDR5Host() Config {
	return Config{
		Geometry: Geometry{Banks: 32, RowBytes: 8 << 10},
		Timing:   Timing{RowHitNs: 13, RowMissNs: 26, RowConflictNs: 39},
	}
}

// Outcome classifies one access.
type Outcome int

// Access outcomes.
const (
	// RowHit: the addressed row was open.
	RowHit Outcome = iota
	// RowMiss: the bank was idle (first access after precharge).
	RowMiss
	// RowConflict: a different row was open and had to be precharged.
	RowConflict
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case RowHit:
		return "hit"
	case RowMiss:
		return "miss"
	case RowConflict:
		return "conflict"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Channel is one DRAM channel with per-bank open-row state.
type Channel struct {
	cfg     Config
	openRow []int64 // -1 = precharged

	hits      uint64
	misses    uint64
	conflicts uint64

	obsHits      *obs.Counter
	obsMisses    *obs.Counter
	obsConflicts *obs.Counter
	obsBusyNs    *obs.Counter
}

// New builds a channel. Banks and RowBytes must be positive.
func New(cfg Config) *Channel {
	if cfg.Geometry.Banks <= 0 || cfg.Geometry.RowBytes == 0 {
		panic(fmt.Sprintf("dram: invalid geometry %+v", cfg.Geometry))
	}
	c := &Channel{cfg: cfg, openRow: make([]int64, cfg.Geometry.Banks)}
	for i := range c.openRow {
		c.openRow[i] = -1
	}
	c.obsHits = cfg.Metrics.Counter("row_hits")
	c.obsMisses = cfg.Metrics.Counter("row_misses")
	c.obsConflicts = cfg.Metrics.Counter("row_conflicts")
	c.obsBusyNs = cfg.Metrics.Counter("busy_ns")
	return c
}

// decode maps an address to (bank, row). Rows interleave across banks so
// consecutive rows land on different banks (standard XOR-free mapping).
//
//m5:hotpath
func (c *Channel) decode(a mem.PhysAddr) (bank int, row int64) {
	rowIdx := uint64(a) / c.cfg.Geometry.RowBytes
	return int(rowIdx % uint64(c.cfg.Geometry.Banks)), int64(rowIdx)
}

// Access serves one 64B access and returns its outcome and latency. The
// open-page policy keeps the row open afterwards.
//
//m5:hotpath
func (c *Channel) Access(a mem.PhysAddr) (Outcome, uint64) {
	bank, row := c.decode(a)
	switch c.openRow[bank] {
	case row:
		c.hits++
		c.obsHits.Inc()
		c.obsBusyNs.Add(c.cfg.Timing.RowHitNs)
		return RowHit, c.cfg.Timing.RowHitNs
	case -1:
		c.openRow[bank] = row
		c.misses++
		c.obsMisses.Inc()
		c.obsBusyNs.Add(c.cfg.Timing.RowMissNs)
		return RowMiss, c.cfg.Timing.RowMissNs
	default:
		c.openRow[bank] = row
		c.conflicts++
		c.obsConflicts.Inc()
		c.obsBusyNs.Add(c.cfg.Timing.RowConflictNs)
		return RowConflict, c.cfg.Timing.RowConflictNs
	}
}

// MaxAccessNs returns the worst-case device latency of one access (the
// maximum over the row-buffer outcomes) — the bound the simulator's
// fast-forward scheduler uses to prove event horizons are unreachable.
func (c *Channel) MaxAccessNs() uint64 {
	m := c.cfg.Timing.RowHitNs
	if c.cfg.Timing.RowMissNs > m {
		m = c.cfg.Timing.RowMissNs
	}
	if c.cfg.Timing.RowConflictNs > m {
		m = c.cfg.Timing.RowConflictNs
	}
	return m
}

// PrechargeAll closes every bank (refresh-like event).
func (c *Channel) PrechargeAll() {
	for i := range c.openRow {
		c.openRow[i] = -1
	}
}

// Hits returns row-buffer hits served.
func (c *Channel) Hits() uint64 { return c.hits }

// Misses returns accesses to idle banks.
func (c *Channel) Misses() uint64 { return c.misses }

// Conflicts returns accesses that closed another row.
func (c *Channel) Conflicts() uint64 { return c.conflicts }

// HitRate returns the row-buffer hit rate.
func (c *Channel) HitRate() float64 {
	tot := c.hits + c.misses + c.conflicts
	if tot == 0 {
		return 0
	}
	return float64(c.hits) / float64(tot) //m5:floatok report-side hit-rate derivation from integer counters
}

// AverageLatencyNs returns the traffic-weighted mean access latency.
func (c *Channel) AverageLatencyNs() float64 {
	tot := c.hits + c.misses + c.conflicts
	if tot == 0 {
		return 0
	}
	sum := float64(c.hits)*float64(c.cfg.Timing.RowHitNs) + //m5:floatok report-side mean-latency derivation from integer counters
		float64(c.misses)*float64(c.cfg.Timing.RowMissNs) +
		float64(c.conflicts)*float64(c.cfg.Timing.RowConflictNs) //m5:floatok report-side mean-latency derivation from integer counters
	return sum / float64(tot)
}
