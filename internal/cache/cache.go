// Package cache implements the set-associative CPU cache hierarchy used to
// turn workload access streams into cache-filtered DRAM access streams —
// the role Intel Pin + Ramulator play in the paper's trace collection
// (§7.1) and the reason DRAM sees only LLC misses and writebacks.
//
// The model is a three-level inclusive hierarchy with true-LRU replacement,
// write-allocate and write-back policies (the paper leans on write-allocate
// in §5.2: every write that misses the LLC first incurs a read). LLC
// capacity can be partitioned by ways to model Intel CAT, as the evaluation
// scales LLC size with the core count (§6).
package cache

import (
	"fmt"
	"math/bits"

	"m5/internal/mem"
	"m5/internal/obs"
)

// Config sizes one cache level.
type Config struct {
	// SizeBytes is the level's capacity. Must be a multiple of
	// LineSize*Ways.
	SizeBytes int
	// Ways is the associativity.
	Ways int
}

// maxWays is the widest level a set's recency word can order: 16 ranks
// of one 4-bit way number each fill the 64-bit word.
const maxWays = 16

// nibbles has the low bit of every nibble set; the SWAR rank search
// broadcasts a way number and subtracts with it.
const nibbles = 0x1111111111111111

// setState is one set's replacement and coherence state.
type setState struct {
	// order lists the set's ways by recency: nibble k holds the way at
	// rank k, rank 0 the most recently used; nibbles above the top rank
	// are don't-care. Every fill and hit moves its way to rank 0;
	// invalidation leaves the order alone.
	order uint64
	dirty uint16 // bit w: way w holds a modified line
	valid uint16 // bit w: way w holds a line
}

// Level is one set-associative cache level with true-LRU replacement.
// Victim choice is a word operation: a set with a free way fills its
// lowest free way (the trailing zeros of the inverted valid mask), and a
// full set evicts the way at the top rank of its recency word. Every way
// of a full set has been filled, and every touch moved its way to rank
// 0, so the top rank is the least recently used way.
type Level struct {
	sets    int
	ways    int
	setMask uint64 // sets-1 when sets is a power of two
	setPow2 bool
	full    uint16 // valid mask of a full set
	// top is the bit offset of the top rank's nibble, 4*(ways-1).
	top uint
	// tags holds sets*ways line addresses (addr >> 6); a tag counts only
	// while its way's valid bit is set.
	tags  []uint64
	state []setState

	hits   uint64
	misses uint64
}

// NewLevel builds a cache level. Size and associativity must describe at
// least one set of whole lines, with at most 16 ways.
func NewLevel(cfg Config) *Level {
	if cfg.Ways <= 0 || cfg.Ways > maxWays || cfg.SizeBytes <= 0 {
		panic(fmt.Sprintf("cache: invalid config %+v (ways must be 1..%d)", cfg, maxWays))
	}
	lines := cfg.SizeBytes / mem.WordSize
	if lines%cfg.Ways != 0 || lines == 0 {
		panic(fmt.Sprintf("cache: size %dB not divisible into %d-way sets", cfg.SizeBytes, cfg.Ways))
	}
	sets := lines / cfg.Ways
	l := &Level{
		sets:    sets,
		ways:    cfg.Ways,
		setPow2: sets&(sets-1) == 0,
		setMask: uint64(sets - 1),
		full:    uint16(1<<cfg.Ways - 1),
		top:     uint(4 * (cfg.Ways - 1)),
		tags:    make([]uint64, sets*cfg.Ways),
		state:   make([]setState, sets),
	}
	// Any permutation serves as the starting order: ways fill lowest
	// first, and once a set is full every way has been touched.
	var order uint64
	for w := 0; w < cfg.Ways; w++ {
		order |= uint64(w) << (4 * w)
	}
	for i := range l.state {
		l.state[i].order = order
	}
	return l
}

// lineAddr is the cache-line (64B word) address of a byte address.
//
//m5:hotpath
func lineAddr(a mem.PhysAddr) uint64 { return uint64(a) >> mem.WordShift }

// set indexes the set of a line address; the power-of-two mask (the common
// case for every default and scaled configuration) is identical to the
// modulo and avoids the divide on the probe hot path.
//
//m5:hotpath
func (l *Level) set(line uint64) int {
	if l.setPow2 {
		return int(line & l.setMask)
	}
	return int(line % uint64(l.sets))
}

// touch moves way w to rank 0, and every way more recent than w one rank
// older. XOR with w broadcast to every nibble zeroes w's nibble, and the
// borrow trick marks the lowest zero nibble exactly (any false positive
// sits above it), so the trailing zeros give w's rank.
//
//m5:hotpath
func (s *setState) touch(w int) {
	o := s.order
	if o&0xF == uint64(w) {
		return
	}
	x := o ^ uint64(w)*nibbles
	at := uint(bits.TrailingZeros64((x-nibbles)&^x&(nibbles<<3))) &^ 3
	below := uint64(1)<<at - 1
	s.order = o&^(below<<4|0xF) | (o&below)<<4 | uint64(w)
}

// Lookup probes the level without filling. It returns whether the line is
// present; a hit makes the line most recently used and merges the dirty
// bit.
//
//m5:hotpath
func (l *Level) Lookup(a mem.PhysAddr, write bool) bool {
	line := lineAddr(a)
	set := l.set(line)
	s := &l.state[set]
	base := set * l.ways
	// One bounds check on the subslice, none in the probe loop.
	tags := l.tags[base : base+l.ways]
	for w := range tags {
		if tags[w] == line && s.valid>>w&1 != 0 {
			s.touch(w)
			if write {
				s.dirty |= 1 << w
			}
			l.hits++
			return true
		}
	}
	l.misses++
	return false
}

// Fill inserts the line, evicting the LRU way if needed. It returns the
// evicted line's first byte address and whether the victim was dirty;
// ok=false when no valid line was evicted.
//
//m5:hotpath
func (l *Level) Fill(a mem.PhysAddr, write bool) (victim mem.PhysAddr, dirty, ok bool) {
	line := lineAddr(a)
	set := l.set(line)
	s := &l.state[set]
	var w int
	if free := l.full &^ s.valid; free != 0 {
		w = bits.TrailingZeros16(free)
		s.valid |= 1 << w
		s.touch(w)
	} else {
		// The victim holds the top rank; moving it to rank 0 shifts
		// every other way down one.
		w = int(s.order >> l.top & 0xF)
		s.order = s.order<<4 | uint64(w)
		victim = mem.PhysAddr(l.tags[set*l.ways+w] << mem.WordShift)
		dirty = s.dirty>>w&1 != 0
		ok = true
	}
	l.tags[set*l.ways+w] = line
	if write {
		s.dirty |= 1 << w
	} else {
		s.dirty &^= 1 << w
	}
	return victim, dirty, ok
}

// Invalidate removes the line if present, returning whether it was present
// and dirty. Used to keep inner levels coherent with LLC evictions.
//
//m5:hotpath
func (l *Level) Invalidate(a mem.PhysAddr) (present, dirty bool) {
	line := lineAddr(a)
	set := l.set(line)
	s := &l.state[set]
	base := set * l.ways
	tags := l.tags[base : base+l.ways]
	for w := range tags {
		if tags[w] == line && s.valid>>w&1 != 0 {
			s.valid &^= 1 << w
			return true, s.dirty>>w&1 != 0
		}
	}
	return false, false
}

// LevelSnapshot is a deep copy of one cache level's state.
type LevelSnapshot struct {
	tags   []uint64
	state  []setState
	hits   uint64
	misses uint64
}

// Snapshot deep-copies the level state.
func (l *Level) Snapshot() LevelSnapshot {
	return LevelSnapshot{
		tags:   append([]uint64(nil), l.tags...),
		state:  append([]setState(nil), l.state...),
		hits:   l.hits,
		misses: l.misses,
	}
}

// Restore rewinds the level to a snapshot taken from a same-shape level.
func (l *Level) Restore(s LevelSnapshot) {
	copy(l.tags, s.tags)
	copy(l.state, s.state)
	l.hits = s.hits
	l.misses = s.misses
}

// Hits returns the level's hit count.
func (l *Level) Hits() uint64 { return l.hits }

// Misses returns the level's miss count.
func (l *Level) Misses() uint64 { return l.misses }

// Sets returns the number of sets.
func (l *Level) Sets() int { return l.sets }

// HitLevel identifies where an access was served.
type HitLevel int

// Hit levels, ordered from fastest to slowest.
const (
	HitL1 HitLevel = iota + 1
	HitL2
	HitLLC
	HitMemory // LLC miss: served by DRAM
)

// String names the hit level.
func (h HitLevel) String() string {
	switch h {
	case HitL1:
		return "L1"
	case HitL2:
		return "L2"
	case HitLLC:
		return "LLC"
	case HitMemory:
		return "MEM"
	default:
		return fmt.Sprintf("HitLevel(%d)", int(h))
	}
}

// Result describes one access through the hierarchy.
type Result struct {
	// Level is where the access hit.
	Level HitLevel
	// Fill is true when a DRAM read fill occurred (LLC miss).
	Fill bool
	// Writeback, when Level==HitMemory or an eviction occurred, holds the
	// byte addresses of dirty lines written back to DRAM this access.
	// The slice aliases a per-Hierarchy scratch buffer and is only valid
	// until the next Access call.
	Writeback []mem.PhysAddr
}

// HierarchyConfig sizes the full three-level hierarchy. Zero values pick
// the defaults modelled on the evaluation platform (§6, Table 2): 48KB L1D,
// 2MB L2, and an LLC sized by CAT ways (60MB / 15 ways per socket; the
// paper allocates 4 ways ≈ 16MB to the 8-core SPEC runs and 10 ways ≈ 40MB
// to the 20-thread GAP runs).
type HierarchyConfig struct {
	L1 Config
	L2 Config
	// LLCWayBytes is the capacity of one CAT way.
	LLCWayBytes int
	// LLCWays is the number of ways allocated (CAT).
	LLCWays int
	// Metrics, when non-nil, receives the hierarchy's counters (l1_hits,
	// l2_hits, llc_hits, dram_reads, writebacks, and prefetches, which
	// always reads 0). Handles are interned at NewHierarchy; the Access
	// hot path stays allocation-free and pays only a nil check when
	// disabled.
	Metrics *obs.Registry
}

func (c HierarchyConfig) withDefaults() HierarchyConfig {
	if c.L1.SizeBytes == 0 {
		c.L1 = Config{SizeBytes: 48 << 10, Ways: 12}
	}
	if c.L2.SizeBytes == 0 {
		c.L2 = Config{SizeBytes: 2 << 20, Ways: 16}
	}
	if c.LLCWayBytes == 0 {
		c.LLCWayBytes = 4 << 20
	}
	if c.LLCWays == 0 {
		c.LLCWays = 10
	}
	return c
}

// Hierarchy is the three-level inclusive cache model.
type Hierarchy struct {
	l1, l2, llc *Level
	accesses    uint64
	dramReads   uint64
	dramWrites  uint64
	// wbScratch backs Result.Writeback so the per-access hot path
	// performs zero heap allocations; each Access call invalidates the
	// slice returned by the previous one.
	wbScratch []mem.PhysAddr
	// res backs the pointer Access returns — same lifetime contract as
	// the scratch slice: valid until the next Access call.
	res Result

	obsL1Hits     *obs.Counter
	obsL2Hits     *obs.Counter
	obsLLCHits    *obs.Counter
	obsDramReads  *obs.Counter
	obsWritebacks *obs.Counter
}

// NewHierarchy builds the hierarchy, applying platform defaults for zero
// fields.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	cfg = cfg.withDefaults()
	h := &Hierarchy{
		l1: NewLevel(cfg.L1),
		l2: NewLevel(cfg.L2),
		llc: NewLevel(Config{
			SizeBytes: cfg.LLCWayBytes * cfg.LLCWays,
			Ways:      cfg.LLCWays,
		}),
		wbScratch: make([]mem.PhysAddr, 0, 4),
	}
	h.obsL1Hits = cfg.Metrics.Counter("l1_hits")
	h.obsL2Hits = cfg.Metrics.Counter("l2_hits")
	h.obsLLCHits = cfg.Metrics.Counter("llc_hits")
	h.obsDramReads = cfg.Metrics.Counter("dram_reads")
	h.obsWritebacks = cfg.Metrics.Counter("writebacks")
	// COMPAT: the hierarchy no longer prefetches, but the checked obs
	// snapshots (BENCH_PR6.json, perfbench's fullsys references) carry
	// cache.prefetches = 0, so the counter stays registered and is never
	// incremented.
	cfg.Metrics.Counter("prefetches")
	return h
}

// Access runs one load/store through the hierarchy and reports where it was
// served plus any DRAM writebacks generated. The returned Result is owned
// by the Hierarchy — like its Writeback slice, it is only valid until the
// next Access call; copy it to retain it.
//
//m5:hotpath
func (h *Hierarchy) Access(a mem.PhysAddr, write bool) *Result {
	h.accesses++
	if h.l1.Lookup(a, write) {
		h.obsL1Hits.Inc()
		h.res = Result{Level: HitL1}
		return &h.res
	}
	if h.l2.Lookup(a, write) {
		h.obsL2Hits.Inc()
		h.fillL1(a, write)
		h.res = Result{Level: HitL2}
		return &h.res
	}
	if h.llc.Lookup(a, write) {
		h.obsLLCHits.Inc()
		wb := h.fillL2(a, write, h.wbScratch[:0])
		h.fillL1(a, write)
		h.wbScratch = wb[:0]
		h.res = Result{Level: HitLLC, Writeback: wb}
		return &h.res
	}
	// LLC miss: read fill from DRAM (write-allocate), possible writeback.
	h.dramReads++
	h.obsDramReads.Inc()
	wb := h.wbScratch[:0]
	if victim, dirty, ok := h.llc.Fill(a, write); ok {
		// Inclusive hierarchy: back-invalidate inner levels.
		_, d1 := h.l1.Invalidate(victim)
		_, d2 := h.l2.Invalidate(victim)
		if dirty || d1 || d2 {
			h.dramWrites++
			h.obsWritebacks.Inc()
			wb = append(wb, victim)
		}
	}
	wb = h.fillL2(a, write, wb)
	h.fillL1(a, write)
	h.wbScratch = wb[:0]
	h.res = Result{Level: HitMemory, Fill: true, Writeback: wb}
	return &h.res
}

// fillL2 fills L2; a dirty victim is flushed to the LLC (not DRAM).
//
//m5:hotpath
func (h *Hierarchy) fillL2(a mem.PhysAddr, write bool, wb []mem.PhysAddr) []mem.PhysAddr {
	if victim, dirty, ok := h.l2.Fill(a, write); ok && dirty {
		// Victim writes back into the LLC if resident there; inclusive
		// design means it is, so just mark it dirty via a write lookup.
		if !h.llc.Lookup(victim, true) {
			// Non-resident (edge case after back-invalidation): write
			// straight to DRAM.
			h.dramWrites++
			h.obsWritebacks.Inc()
			wb = append(wb, victim)
		}
	}
	return wb
}

//m5:hotpath
func (h *Hierarchy) fillL1(a mem.PhysAddr, write bool) {
	if victim, dirty, ok := h.l1.Fill(a, write); ok && dirty {
		if !h.l2.Lookup(victim, true) {
			h.llc.Lookup(victim, true)
		}
	}
}

// Snapshot is a deep copy of the hierarchy's state, for forking warmed
// simulator checkpoints. Observability counters are not part of the
// snapshot (checkpoints are only taken from metrics-free runners).
type Snapshot struct {
	l1, l2, llc LevelSnapshot
	accesses    uint64
	dramReads   uint64
	dramWrites  uint64
}

// Snapshot deep-copies the hierarchy state.
func (h *Hierarchy) Snapshot() Snapshot {
	return Snapshot{
		l1:         h.l1.Snapshot(),
		l2:         h.l2.Snapshot(),
		llc:        h.llc.Snapshot(),
		accesses:   h.accesses,
		dramReads:  h.dramReads,
		dramWrites: h.dramWrites,
	}
}

// Restore rewinds the hierarchy to a snapshot taken from a same-config
// hierarchy.
func (h *Hierarchy) Restore(s Snapshot) {
	h.l1.Restore(s.l1)
	h.l2.Restore(s.l2)
	h.llc.Restore(s.llc)
	h.accesses = s.accesses
	h.dramReads = s.dramReads
	h.dramWrites = s.dramWrites
}

// Accesses returns the total number of accesses issued.
func (h *Hierarchy) Accesses() uint64 { return h.accesses }

// DRAMReads returns the number of read fills that reached DRAM.
func (h *Hierarchy) DRAMReads() uint64 { return h.dramReads }

// DRAMWrites returns the number of writebacks that reached DRAM.
func (h *Hierarchy) DRAMWrites() uint64 { return h.dramWrites }

// MPKI returns LLC misses per kilo-access (the paper selects SPEC
// workloads by LLC MPKI, §6).
func (h *Hierarchy) MPKI() float64 {
	if h.accesses == 0 {
		return 0
	}
	return float64(h.dramReads) / float64(h.accesses) * 1000 //m5:floatok report-side MPKI derivation from integer counters
}

// L1 returns the L1 level (for stats).
func (h *Hierarchy) L1() *Level { return h.l1 }

// L2 returns the L2 level (for stats).
func (h *Hierarchy) L2() *Level { return h.l2 }

// LLC returns the LLC level (for stats).
func (h *Hierarchy) LLC() *Level { return h.llc }
