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
	"slices"

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

// probe returns the way of set that holds line, or -1, without touching
// the set or the counters.
//
//m5:hotpath
func (l *Level) probe(line uint64, set int) int {
	valid := l.state[set].valid
	base := set * l.ways
	// One bounds check on the subslice, none in the probe loop.
	tags := l.tags[base : base+l.ways]
	for w := range tags {
		if tags[w] == line && valid>>w&1 != 0 {
			return w
		}
	}
	return -1
}

// hit counts a hit on way w of set: the way becomes most recently used
// and a write dirties it.
//
//m5:hotpath
func (l *Level) hit(set, w int, write bool) {
	s := &l.state[set]
	s.touch(w)
	if write {
		s.dirty |= 1 << w
	}
	l.hits++
}

// fill puts line into set and returns the way it took: the lowest free
// way, else the least recently used one, whose line it returns as victim
// with evicted set. dirty reports whether the victim was modified.
//
//m5:hotpath
func (l *Level) fill(line uint64, set int, write bool) (w int, victim uint64, evicted, dirty bool) {
	s := &l.state[set]
	if free := l.full &^ s.valid; free != 0 {
		w = bits.TrailingZeros16(free)
		s.valid |= 1 << w
		s.touch(w)
	} else {
		// The victim holds the top rank; moving it to rank 0 shifts
		// every other way down one.
		w = int(s.order >> l.top & 0xF)
		s.order = s.order<<4 | uint64(w)
		evicted = true
		dirty = s.dirty>>w&1 != 0
	}
	i := set*l.ways + w
	victim, l.tags[i] = l.tags[i], line
	if write {
		s.dirty |= 1 << w
	} else {
		s.dirty &^= 1 << w
	}
	return w, victim, evicted, dirty
}

// drop invalidates way w of set and reports whether its line was dirty.
// The way keeps its rank.
//
//m5:hotpath
func (l *Level) drop(set, w int) (dirty bool) {
	s := &l.state[set]
	s.valid &^= 1 << w
	return s.dirty>>w&1 != 0
}

// Lookup probes the level without filling. It returns whether the line is
// present; a hit makes the line most recently used and merges the dirty
// bit.
//
//m5:hotpath
func (l *Level) Lookup(a mem.PhysAddr, write bool) bool {
	line := lineAddr(a)
	set := l.set(line)
	if w := l.probe(line, set); w >= 0 {
		l.hit(set, w, write)
		return true
	}
	l.misses++
	return false
}

// Fill inserts the line, evicting the LRU way if needed. It returns the
// evicted line's first byte address and whether the victim was dirty;
// ok=false when no valid line was evicted. It is for standalone levels:
// a Hierarchy's directory would not see the change (see Hierarchy.L1).
func (l *Level) Fill(a mem.PhysAddr, write bool) (victim mem.PhysAddr, dirty, ok bool) {
	line := lineAddr(a)
	_, v, ok, dirty := l.fill(line, l.set(line), write)
	if !ok {
		return 0, false, false
	}
	return mem.PhysAddr(v << mem.WordShift), dirty, true
}

// Invalidate removes the line if present, returning whether it was present
// and dirty. Like Fill, it is for standalone levels.
func (l *Level) Invalidate(a mem.PhysAddr) (present, dirty bool) {
	line := lineAddr(a)
	set := l.set(line)
	if w := l.probe(line, set); w >= 0 {
		return true, l.drop(set, w)
	}
	return false, false
}

// Clone returns an independent copy of the level.
func (l *Level) Clone() *Level {
	d := *l
	d.tags = slices.Clone(l.tags)
	d.state = slices.Clone(l.state)
	return &d
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
//
// Inclusion makes the LLC the hierarchy's directory: every L1 and L2
// line is also in the LLC, because an LLC eviction back-invalidates
// both inner levels. So each LLC slot records which L1 and L2 slot hold
// its line, and each L1 and L2 slot records its line's LLC slot. An L1
// miss is then one LLC probe, which also says whether the L2 holds the
// line, and back-invalidation, dirty-victim writeback and the L2 or LLC
// touch of an inner victim are slot operations rather than tag scans.
// The directory is derived from the levels' tags and valid masks, but
// Clone copies it rather than re-deriving it.
type Hierarchy struct {
	l1, l2, llc *Level
	// dir has one entry per LLC slot (set*ways + way): the L1 and L2
	// slots holding the same line, or -1.
	dir []dirEntry
	// up1 and up2 have one entry per L1 and L2 slot: the LLC slot of
	// the line there. An entry counts only while its way is valid.
	up1, up2   []int32
	accesses   uint64
	dramReads  uint64
	dramWrites uint64
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

// A slot code names one way of one level as set<<4 | way; levels have at
// most 16 ways, so it decodes with a shift and a mask.
//
//m5:hotpath
func slotCode(set, w int) int32 { return int32(set<<4 | w) }

// dirEntry is the directory state of one LLC slot: the slot codes of the
// L1 and L2 ways holding its line, or -1.
type dirEntry struct{ l1, l2 int32 }

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
	h.dir = make([]dirEntry, len(h.llc.tags))
	for i := range h.dir {
		h.dir[i] = dirEntry{l1: -1, l2: -1}
	}
	h.up1 = make([]int32, len(h.l1.tags))
	h.up2 = make([]int32, len(h.l2.tags))
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
	line := lineAddr(a)
	// The L1 probe is Level.Lookup, written out.
	l1 := h.l1
	set := l1.set(line)
	s := &l1.state[set]
	base := set * l1.ways
	tags := l1.tags[base : base+l1.ways]
	for w := range tags {
		if tags[w] == line && s.valid>>w&1 != 0 {
			s.touch(w)
			if write {
				s.dirty |= 1 << w
			}
			l1.hits++
			h.obsL1Hits.Inc()
			h.res = Result{Level: HitL1}
			return &h.res
		}
	}
	l1.misses++
	return h.miss(line, write)
}

// miss serves an L1 miss. One LLC probe decides the rest: a line the LLC
// lacks misses in L2 too, and the probed slot's directory entry says
// whether L2 holds it.
//
//m5:hotpath
func (h *Hierarchy) miss(line uint64, write bool) *Result {
	llc := h.llc
	set := llc.set(line)
	w := llc.probe(line, set)
	if w >= 0 {
		slot, up := set*llc.ways+w, slotCode(set, w)
		if c := h.dir[slot].l2; c >= 0 {
			h.l2.hit(int(c>>4), int(c&0xF), write)
			h.obsL2Hits.Inc()
			h.fillL1(line, slot, up, write)
			h.res = Result{Level: HitL2}
			return &h.res
		}
		h.l2.misses++
		llc.hit(set, w, write)
		h.obsLLCHits.Inc()
		h.fillL2(line, slot, up, write)
		h.fillL1(line, slot, up, write)
		h.res = Result{Level: HitLLC}
		return &h.res
	}
	h.l2.misses++
	llc.misses++
	// LLC miss: read fill from DRAM (write-allocate), possible writeback.
	h.dramReads++
	h.obsDramReads.Inc()
	wb := h.wbScratch[:0]
	w, victim, evicted, dirty := llc.fill(line, set, write)
	slot, up := set*llc.ways+w, slotCode(set, w)
	d := &h.dir[slot]
	if evicted {
		// Inclusive hierarchy: back-invalidate inner levels.
		if c := d.l1; c >= 0 && h.l1.drop(int(c>>4), int(c&0xF)) {
			dirty = true
		}
		if c := d.l2; c >= 0 && h.l2.drop(int(c>>4), int(c&0xF)) {
			dirty = true
		}
		if dirty {
			h.dramWrites++
			h.obsWritebacks.Inc()
			wb = append(wb, mem.PhysAddr(victim<<mem.WordShift))
		}
	}
	*d = dirEntry{l1: -1, l2: -1}
	h.fillL2(line, slot, up, write)
	h.fillL1(line, slot, up, write)
	h.wbScratch = wb[:0]
	h.res = Result{Level: HitMemory, Fill: true, Writeback: wb}
	return &h.res
}

// fillL2 fills L2 with the line the LLC holds at directory index slot,
// whose slot code is up. A dirty victim is written back into its own LLC
// slot, which inclusion guarantees still holds it.
//
//m5:hotpath
func (h *Hierarchy) fillL2(line uint64, slot int, up int32, write bool) {
	l2 := h.l2
	set := l2.set(line)
	w, _, evicted, dirty := l2.fill(line, set, write)
	i := set*l2.ways + w
	if evicted {
		v := h.up2[i]
		vs, vw := int(v>>4), int(v&0xF)
		h.dir[vs*h.llc.ways+vw].l2 = -1
		if dirty {
			h.llc.hit(vs, vw, true)
		}
	}
	h.up2[i] = up
	h.dir[slot].l2 = slotCode(set, w)
}

// fillL1 fills L1 with the line the LLC holds at directory index slot,
// whose slot code is up. A dirty victim is written back into L2 when L2
// holds it, else into its LLC slot.
//
//m5:hotpath
func (h *Hierarchy) fillL1(line uint64, slot int, up int32, write bool) {
	l1 := h.l1
	set := l1.set(line)
	w, _, evicted, dirty := l1.fill(line, set, write)
	i := set*l1.ways + w
	if evicted {
		v := h.up1[i]
		vs, vw := int(v>>4), int(v&0xF)
		d := &h.dir[vs*h.llc.ways+vw]
		d.l1 = -1
		if dirty {
			if c := d.l2; c >= 0 {
				h.l2.hit(int(c>>4), int(c&0xF), true)
			} else {
				h.l2.misses++
				h.llc.hit(vs, vw, true)
			}
		}
	}
	h.up1[i] = up
	h.dir[slot].l1 = slotCode(set, w)
}

// Clone returns an independent copy of the hierarchy: its levels, the
// directory and the up-pointers, and the access counters. Metrics
// handles are not carried: the clone counts into no registry.
func (h *Hierarchy) Clone() *Hierarchy {
	return &Hierarchy{
		l1:         h.l1.Clone(),
		l2:         h.l2.Clone(),
		llc:        h.llc.Clone(),
		dir:        slices.Clone(h.dir),
		up1:        slices.Clone(h.up1),
		up2:        slices.Clone(h.up2),
		accesses:   h.accesses,
		dramReads:  h.dramReads,
		dramWrites: h.dramWrites,
		wbScratch:  make([]mem.PhysAddr, 0, cap(h.wbScratch)),
	}
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
	return float64(h.dramReads) / float64(h.accesses) * 1000
}

// L1 returns the L1 level, a view for stats. Callers may Lookup through
// it but must not Fill or Invalidate: the hierarchy's directory tracks
// which lines each level holds, and only Access keeps it in step.
func (h *Hierarchy) L1() *Level { return h.l1 }

// L2 returns the L2 level, a view for stats under the same rule as L1.
func (h *Hierarchy) L2() *Level { return h.l2 }

// LLC returns the LLC level, a view for stats under the same rule as L1.
func (h *Hierarchy) LLC() *Level { return h.llc }
