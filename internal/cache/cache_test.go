package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"m5/internal/mem"
)

func tinyHierarchy() *Hierarchy {
	return NewHierarchy(HierarchyConfig{
		L1:          Config{SizeBytes: 1 << 10, Ways: 2}, // 16 lines
		L2:          Config{SizeBytes: 4 << 10, Ways: 4}, // 64 lines
		LLCWayBytes: 4 << 10,                             // 4KB per way
		LLCWays:     4,                                   // 16KB LLC
	})
}

func TestLevelBasics(t *testing.T) {
	l := NewLevel(Config{SizeBytes: 512, Ways: 2}) // 8 lines, 4 sets
	if l.Sets() != 4 {
		t.Fatalf("Sets = %d", l.Sets())
	}
	a := mem.PhysAddr(0x1000)
	if l.Lookup(a, false) {
		t.Error("cold lookup should miss")
	}
	l.Fill(a, false)
	if !l.Lookup(a, false) {
		t.Error("filled line should hit")
	}
	if l.Hits() != 1 || l.Misses() != 1 {
		t.Errorf("hits=%d misses=%d", l.Hits(), l.Misses())
	}
}

func TestLevelLRUEviction(t *testing.T) {
	l := NewLevel(Config{SizeBytes: 2 * 64, Ways: 2}) // 1 set, 2 ways
	a := mem.PhysAddr(0)
	b := mem.PhysAddr(64)
	c := mem.PhysAddr(128)
	l.Fill(a, false)
	l.Fill(b, false)
	l.Lookup(a, false) // a is now MRU
	victim, dirty, ok := l.Fill(c, false)
	if !ok {
		t.Fatal("full set should evict")
	}
	if victim != b {
		t.Errorf("victim = %v, want %v (LRU)", victim, b)
	}
	if dirty {
		t.Error("clean victim reported dirty")
	}
	if l.Lookup(b, false) {
		t.Error("evicted line should miss")
	}
}

func TestLevelDirtyEviction(t *testing.T) {
	l := NewLevel(Config{SizeBytes: 64, Ways: 1}) // 1 line
	l.Fill(0, true)                               // dirty
	_, dirty, ok := l.Fill(64, false)
	if !ok || !dirty {
		t.Error("dirty victim should be reported")
	}
}

func TestLevelDirtyOnWriteHit(t *testing.T) {
	l := NewLevel(Config{SizeBytes: 64, Ways: 1})
	l.Fill(0, false)
	l.Lookup(0, true) // write hit dirties the line
	_, dirty, _ := l.Fill(64, false)
	if !dirty {
		t.Error("write hit should dirty the line")
	}
}

func TestLevelInvalidate(t *testing.T) {
	l := NewLevel(Config{SizeBytes: 128, Ways: 2})
	l.Fill(0, true)
	present, dirty := l.Invalidate(0)
	if !present || !dirty {
		t.Error("invalidate should report present dirty line")
	}
	if p, _ := l.Invalidate(0); p {
		t.Error("second invalidate should miss")
	}
}

func TestLevelPanicsOnBadConfig(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		want string // substring of the panic message
	}{
		{Config{SizeBytes: 0, Ways: 1}, "invalid config"},
		{Config{SizeBytes: 64, Ways: 0}, "invalid config"},
		// The recency word orders at most 16 ways.
		{Config{SizeBytes: 17 * 64, Ways: 17}, "ways must be 1..16"},
		{Config{SizeBytes: 3 * 64, Ways: 2}, "not divisible"},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, tc.want) {
					t.Errorf("NewLevel(%+v) panic = %q, want it to mention %q", tc.cfg, msg, tc.want)
				}
			}()
			NewLevel(tc.cfg)
		}()
	}
}

// stampLevel is the stamp-based true-LRU level the packed recency words
// replaced, kept as the oracle for Level: an empty way holds a sentinel
// tag, each line keeps a (stamp<<1 | dirty) word stamped from a
// per-level tick on every fill and hit, and a fill takes the first empty
// way, else the minimum-stamp way.
type stampLevel struct {
	sets, ways   int
	tags, lru    []uint64
	tick         uint64
	hits, misses uint64
}

const stampInvalid = ^uint64(0)

func newStampLevel(cfg Config) *stampLevel {
	sets := cfg.SizeBytes / mem.WordSize / cfg.Ways
	l := &stampLevel{sets: sets, ways: cfg.Ways,
		tags: make([]uint64, sets*cfg.Ways), lru: make([]uint64, sets*cfg.Ways)}
	for i := range l.tags {
		l.tags[i] = stampInvalid
	}
	return l
}

func (l *stampLevel) base(a mem.PhysAddr) (uint64, int) {
	line := uint64(a) >> mem.WordShift
	return line, int(line%uint64(l.sets)) * l.ways
}

func (l *stampLevel) Lookup(a mem.PhysAddr, write bool) bool {
	line, base := l.base(a)
	for i := base; i < base+l.ways; i++ {
		if l.tags[i] == line {
			l.tick++
			d := l.lru[i] & 1
			if write {
				d = 1
			}
			l.lru[i] = l.tick<<1 | d
			l.hits++
			return true
		}
	}
	l.misses++
	return false
}

func (l *stampLevel) Fill(a mem.PhysAddr, write bool) (victim mem.PhysAddr, dirty, ok bool) {
	line, base := l.base(a)
	pick, p := -1, base
	for i := base; i < base+l.ways; i++ {
		if l.tags[i] == stampInvalid {
			pick = i
			break
		}
		if l.lru[i] < l.lru[p] {
			p = i
		}
	}
	if pick < 0 {
		pick = p
		victim = mem.PhysAddr(l.tags[pick] << mem.WordShift)
		dirty = l.lru[pick]&1 != 0
		ok = true
	}
	l.tick++
	var d uint64
	if write {
		d = 1
	}
	l.tags[pick] = line
	l.lru[pick] = l.tick<<1 | d
	return victim, dirty, ok
}

func (l *stampLevel) Invalidate(a mem.PhysAddr) (present, dirty bool) {
	line, base := l.base(a)
	for i := base; i < base+l.ways; i++ {
		if l.tags[i] == line {
			l.tags[i] = stampInvalid
			return true, l.lru[i]&1 != 0
		}
	}
	return false, false
}

// levelOp is one step of a random Level stream; levelStep applies it and
// renders every return value, so two levels agree exactly when their
// renderings do.
type levelOp struct {
	kind  int // 0 Lookup, 1 Fill, 2 Invalidate, 3 Lookup then Fill on a miss
	addr  mem.PhysAddr
	write bool
}

type levelAPI interface {
	Lookup(mem.PhysAddr, bool) bool
	Fill(mem.PhysAddr, bool) (mem.PhysAddr, bool, bool)
	Invalidate(mem.PhysAddr) (bool, bool)
}

func levelStep(l levelAPI, op levelOp) string {
	switch op.kind {
	case 0:
		return fmt.Sprint("lookup ", l.Lookup(op.addr, op.write))
	case 1:
		v, d, ok := l.Fill(op.addr, op.write)
		return fmt.Sprint("fill ", v, d, ok)
	case 2:
		p, d := l.Invalidate(op.addr)
		return fmt.Sprint("inval ", p, d)
	default:
		if l.Lookup(op.addr, op.write) {
			return "access hit"
		}
		v, d, ok := l.Fill(op.addr, op.write)
		return fmt.Sprint("access fill ", v, d, ok)
	}
}

func randomLevelOps(rng *rand.Rand, n, lines int) []levelOp {
	ops := make([]levelOp, n)
	for i := range ops {
		k := rng.Intn(20)
		kind := 3
		switch {
		case k < 3:
			kind = 0
		case k < 5:
			kind = 1 // may duplicate a resident line; both levels must agree anyway
		case k < 8:
			kind = 2
		}
		ops[i] = levelOp{kind: kind, addr: mem.PhysAddr(rng.Intn(lines)) << mem.WordShift, write: rng.Intn(3) == 0}
	}
	return ops
}

// TestLevelMatchesStampOracle drives Level and the stamp-based oracle
// with the same seeded Lookup/Fill/Invalidate streams, over every
// associativity from direct-mapped to the 16-way limit and over
// power-of-two and other set counts, and requires every return value and
// the hit and miss counts to agree. It then cuts the stream with a Clone:
// the original continues against the oracle, and the clone, run after
// it, must repeat the oracle's answers.
func TestLevelMatchesStampOracle(t *testing.T) {
	for _, ways := range []int{1, 2, 3, 4, 8, 12, 16} {
		for _, sets := range []int{1, 3, 4, 6, 16} {
			cfg := Config{SizeBytes: sets * ways * mem.WordSize, Ways: ways}
			t.Run(fmt.Sprintf("ways%d-sets%d", ways, sets), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(ways*100 + sets)))
				// Three times the capacity: hits, conflict evictions and
				// refills of invalidated ways all occur.
				lines := 3 * sets * ways
				got, want := NewLevel(cfg), newStampLevel(cfg)
				for i, op := range randomLevelOps(rng, 20_000, lines) {
					if g, w := levelStep(got, op), levelStep(want, op); g != w {
						t.Fatalf("op %d %+v: Level %q, oracle %q", i, op, g, w)
					}
				}
				if got.Hits() != want.hits || got.Misses() != want.misses {
					t.Fatalf("hits/misses %d/%d, oracle %d/%d", got.Hits(), got.Misses(), want.hits, want.misses)
				}

				clone := got.Clone()
				tail := randomLevelOps(rng, 5_000, lines)
				oracle := make([]string, len(tail))
				for i, op := range tail {
					oracle[i] = levelStep(want, op)
					if g := levelStep(got, op); g != oracle[i] {
						t.Fatalf("tail op %d %+v: Level %q, oracle %q", i, op, g, oracle[i])
					}
				}
				for i, op := range tail {
					if g := levelStep(clone, op); g != oracle[i] {
						t.Fatalf("clone op %d %+v: %q, oracle %q", i, op, g, oracle[i])
					}
				}
				if clone.Hits() != want.hits || clone.Misses() != want.misses {
					t.Fatalf("clone hits/misses %d/%d, oracle %d/%d", clone.Hits(), clone.Misses(), want.hits, want.misses)
				}
			})
		}
	}
}

func TestHierarchyColdMissHitsMemory(t *testing.T) {
	h := tinyHierarchy()
	r := h.Access(0x10000, false)
	if r.Level != HitMemory || !r.Fill {
		t.Errorf("cold access = %+v", r)
	}
	if h.DRAMReads() != 1 {
		t.Errorf("DRAMReads = %d", h.DRAMReads())
	}
	// Second access to the same line: L1 hit.
	r = h.Access(0x10000, false)
	if r.Level != HitL1 {
		t.Errorf("warm access level = %v", r.Level)
	}
	if h.DRAMReads() != 1 {
		t.Error("L1 hit should not touch DRAM")
	}
}

func TestHierarchyFiltering(t *testing.T) {
	// A working set that fits in the LLC should stop generating DRAM
	// traffic after the first pass.
	h := tinyHierarchy()
	lines := 64 // 4KB working set << 16KB LLC
	for pass := 0; pass < 10; pass++ {
		for i := 0; i < lines; i++ {
			h.Access(mem.PhysAddr(i*64), false)
		}
	}
	if h.DRAMReads() != uint64(lines) {
		t.Errorf("DRAMReads = %d, want %d (one per line, first pass only)",
			h.DRAMReads(), lines)
	}
	if h.MPKI() >= 1000 {
		t.Errorf("MPKI = %v", h.MPKI())
	}
}

func TestHierarchyThrashingGeneratesTraffic(t *testing.T) {
	// A working set far larger than the LLC keeps missing.
	h := tinyHierarchy()
	lines := 4096 // 256KB >> 16KB LLC
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < lines; i++ {
			h.Access(mem.PhysAddr(i*64), false)
		}
	}
	// Every pass should miss nearly everywhere (sequential sweep + LRU).
	if h.DRAMReads() < uint64(2*lines) {
		t.Errorf("DRAMReads = %d, want >= %d", h.DRAMReads(), 2*lines)
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	h := tinyHierarchy()
	// Dirty many distinct lines mapping across the LLC, then sweep a
	// larger clean set to force dirty evictions.
	for i := 0; i < 512; i++ {
		h.Access(mem.PhysAddr(i*64), true)
	}
	wbBefore := h.DRAMWrites()
	for i := 512; i < 4096; i++ {
		h.Access(mem.PhysAddr(i*64), false)
	}
	if h.DRAMWrites() <= wbBefore {
		t.Error("sweeping past dirty lines should produce writebacks")
	}
}

func TestWriteAllocate(t *testing.T) {
	h := tinyHierarchy()
	r := h.Access(0x40000, true)
	if r.Level != HitMemory || !r.Fill {
		t.Error("write miss should read-fill (write-allocate)")
	}
	if h.DRAMReads() != 1 {
		t.Errorf("DRAMReads = %d, want 1 (write-allocate read)", h.DRAMReads())
	}
	if h.DRAMWrites() != 0 {
		t.Errorf("DRAMWrites = %d, want 0 until eviction", h.DRAMWrites())
	}
}

func TestCATScalesLLC(t *testing.T) {
	// More CAT ways -> fewer DRAM reads for the same medium working set.
	run := func(ways int) uint64 {
		h := NewHierarchy(HierarchyConfig{
			L1:          Config{SizeBytes: 1 << 10, Ways: 2},
			L2:          Config{SizeBytes: 2 << 10, Ways: 2},
			LLCWayBytes: 8 << 10,
			LLCWays:     ways,
		})
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 200000; i++ {
			h.Access(mem.PhysAddr(rng.Intn(2048)*64), false)
		}
		return h.DRAMReads()
	}
	small := run(2)  // 16KB LLC
	large := run(16) // 128KB LLC covers the 128KB set
	if large >= small {
		t.Errorf("16-way reads %d >= 2-way reads %d", large, small)
	}
}

func TestHierarchyDefaults(t *testing.T) {
	h := NewHierarchy(HierarchyConfig{})
	if h.LLC().Sets() == 0 || h.L1().Sets() == 0 || h.L2().Sets() == 0 {
		t.Error("defaults should produce non-empty levels")
	}
	if h.Accesses() != 0 {
		t.Error("fresh hierarchy access count")
	}
}

func TestHitLevelString(t *testing.T) {
	for lv, want := range map[HitLevel]string{HitL1: "L1", HitL2: "L2", HitLLC: "LLC", HitMemory: "MEM"} {
		if lv.String() != want {
			t.Errorf("%d.String() = %q", lv, lv.String())
		}
	}
	if HitLevel(9).String() == "" {
		t.Error("unknown level should render")
	}
}

func TestInclusionInvariant(t *testing.T) {
	// After random traffic, any line resident in L1 must also be in LLC
	// (inclusive hierarchy) — verified indirectly: an LLC Lookup for a
	// just-L1-hit line must hit as well.
	h := tinyHierarchy()
	rng := rand.New(rand.NewSource(7))
	addrs := make([]mem.PhysAddr, 64)
	for i := range addrs {
		addrs[i] = mem.PhysAddr(rng.Intn(1024) * 64)
	}
	for i := 0; i < 50000; i++ {
		h.Access(addrs[rng.Intn(len(addrs))], rng.Intn(4) == 0)
	}
	hitsL1 := 0
	for _, a := range addrs {
		if h.L1().Lookup(a, false) {
			hitsL1++
			if !h.LLC().Lookup(a, false) {
				t.Fatalf("line %v in L1 but not in LLC", a)
			}
		}
	}
	if hitsL1 == 0 {
		t.Skip("no L1-resident lines sampled")
	}
}

// probeHierarchy is the tag-scanning hierarchy the LLC directory
// replaced, kept as the oracle for Hierarchy: an L1 miss probes L2 and
// then the LLC, an LLC eviction back-invalidates L1 and L2 by tag, and a
// dirty inner victim is written back through tag lookups.
type probeHierarchy struct {
	l1, l2, llc                    *Level
	accesses, dramReads, dramWrite uint64
}

func newProbeHierarchy(cfg HierarchyConfig) *probeHierarchy {
	cfg = cfg.withDefaults()
	return &probeHierarchy{
		l1:  NewLevel(cfg.L1),
		l2:  NewLevel(cfg.L2),
		llc: NewLevel(Config{SizeBytes: cfg.LLCWayBytes * cfg.LLCWays, Ways: cfg.LLCWays}),
	}
}

func (h *probeHierarchy) Access(a mem.PhysAddr, write bool) Result {
	h.accesses++
	if h.l1.Lookup(a, write) {
		return Result{Level: HitL1}
	}
	if h.l2.Lookup(a, write) {
		h.fillL1(a, write)
		return Result{Level: HitL2}
	}
	if h.llc.Lookup(a, write) {
		wb := h.fillL2(a, write, nil)
		h.fillL1(a, write)
		return Result{Level: HitLLC, Writeback: wb}
	}
	h.dramReads++
	var wb []mem.PhysAddr
	if victim, dirty, ok := h.llc.Fill(a, write); ok {
		_, d1 := h.l1.Invalidate(victim)
		_, d2 := h.l2.Invalidate(victim)
		if dirty || d1 || d2 {
			h.dramWrite++
			wb = append(wb, victim)
		}
	}
	wb = h.fillL2(a, write, wb)
	h.fillL1(a, write)
	return Result{Level: HitMemory, Fill: true, Writeback: wb}
}

func (h *probeHierarchy) fillL2(a mem.PhysAddr, write bool, wb []mem.PhysAddr) []mem.PhysAddr {
	if victim, dirty, ok := h.l2.Fill(a, write); ok && dirty {
		if !h.llc.Lookup(victim, true) {
			h.dramWrite++
			wb = append(wb, victim)
		}
	}
	return wb
}

func (h *probeHierarchy) fillL1(a mem.PhysAddr, write bool) {
	if victim, dirty, ok := h.l1.Fill(a, write); ok && dirty {
		if !h.l2.Lookup(victim, true) {
			h.llc.Lookup(victim, true)
		}
	}
}

// hierOp is one access of a seeded stream.
type hierOp struct {
	addr  mem.PhysAddr
	write bool
}

// hierStream draws n accesses over span stream lines: uniform,
// Zipf-skewed, or a sequential sweep with one access in eight to a random
// line. Stream line x maps to cache line x%window + x/window*sets, so the
// stream covers window of an LLC's sets and every line of it conflicts
// in them. About one access in four writes, and addresses fall anywhere
// in their line.
func hierStream(kind string, rng *rand.Rand, n, span, window, sets int) []hierOp {
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(span-1))
	ops := make([]hierOp, n)
	for i := range ops {
		var x int
		switch kind {
		case "uniform":
			x = rng.Intn(span)
		case "skewed":
			x = int(zipf.Uint64())
		default:
			x = i % span
			if rng.Intn(8) == 0 {
				x = rng.Intn(span)
			}
		}
		line := x%window + x/window*sets
		ops[i] = hierOp{
			addr:  mem.PhysAddr(line)<<mem.WordShift | mem.PhysAddr(rng.Intn(mem.WordSize)),
			write: rng.Intn(4) == 0,
		}
	}
	return ops
}

// renderResult renders everything a Result reports; the Writeback slice
// is compared by contents, not by identity or capacity.
func renderResult(r Result) string {
	return fmt.Sprint(r.Level, r.Fill, r.Writeback)
}

// hierState is the hierarchy's counters and its three levels.
type hierState struct {
	accesses, reads, writes uint64
	levels                  [3]*Level
}

func (h *Hierarchy) state() hierState {
	return hierState{h.accesses, h.dramReads, h.dramWrites, [3]*Level{h.l1, h.l2, h.llc}}
}

func (h *probeHierarchy) state() hierState {
	return hierState{h.accesses, h.dramReads, h.dramWrite, [3]*Level{h.l1, h.l2, h.llc}}
}

// diffState names the first difference between two hierarchy states: a
// counter, a level's hit or miss count, or a level's tags or set state.
func diffState(a, b hierState) string {
	if a.accesses != b.accesses || a.reads != b.reads || a.writes != b.writes {
		return fmt.Sprintf("accesses/DRAM reads/writes %d/%d/%d vs %d/%d/%d",
			a.accesses, a.reads, a.writes, b.accesses, b.reads, b.writes)
	}
	for i := range a.levels {
		x, y := a.levels[i], b.levels[i]
		switch {
		case x.hits != y.hits || x.misses != y.misses:
			return fmt.Sprintf("level %d hits/misses %d/%d vs %d/%d", i+1, x.hits, x.misses, y.hits, y.misses)
		case !slices.Equal(x.tags, y.tags):
			return fmt.Sprintf("level %d tags differ", i+1)
		case !slices.Equal(x.state, y.state):
			return fmt.Sprintf("level %d set state differs", i+1)
		}
	}
	return ""
}

// runBoth drives both hierarchies with ops and fails at the first Result
// that differs; it returns the directory hierarchy's rendered Results.
func runBoth(t *testing.T, got *Hierarchy, want *probeHierarchy, ops []hierOp) []string {
	t.Helper()
	out := make([]string, len(ops))
	for i, op := range ops {
		g, w := renderResult(*got.Access(op.addr, op.write)), renderResult(want.Access(op.addr, op.write))
		if g != w {
			t.Fatalf("access %d %+v: directory %s, probe oracle %s", i, op, g, w)
		}
		out[i] = g
	}
	if d := diffState(got.state(), want.state()); d != "" {
		t.Fatalf("after %d accesses, directory vs probe oracle: %s", len(ops), d)
	}
	return out
}

// replay runs ops on h and fails unless every Result matches want.
func replay(t *testing.T, h *Hierarchy, ops []hierOp, want []string) {
	t.Helper()
	for i, op := range ops {
		if g := renderResult(*h.Access(op.addr, op.write)); g != want[i] {
			t.Fatalf("access %d %+v: %s, oracle %s", i, op, g, want[i])
		}
	}
}

// TestHierarchyMatchesProbeOracle drives the directory Hierarchy and the
// tag-scanning oracle with the same seeded read/write streams over several
// geometries, and requires every Result, the access and DRAM counters,
// each level's hit and miss counts and each level's tags and recency state
// to agree. It then cuts the stream with a Clone, which must copy the
// directory with the levels: the original continues against the oracle,
// and the clone, run after it, must repeat the oracle's Results and end
// in the oracle's state.
func TestHierarchyMatchesProbeOracle(t *testing.T) {
	geoms := []struct {
		name string
		cfg  HierarchyConfig
	}{
		// The geometry every runner builds at tiny scale.
		{"tiny-scaled", HierarchyConfig{
			L1: Config{SizeBytes: 8 << 10, Ways: 2}, L2: Config{SizeBytes: 8 << 10, Ways: 4},
			LLCWayBytes: 8 << 10, LLCWays: 8}},
		{"platform-defaults", HierarchyConfig{}},
		{"one-way", HierarchyConfig{
			L1: Config{SizeBytes: 1 << 10, Ways: 1}, L2: Config{SizeBytes: 2 << 10, Ways: 1},
			LLCWayBytes: 8 << 10, LLCWays: 1}},
		// 3-, 5- and 7-set levels take the modulo set index.
		{"non-pow2-sets", HierarchyConfig{
			L1: Config{SizeBytes: 3 * 2 * 64, Ways: 2}, L2: Config{SizeBytes: 5 * 3 * 64, Ways: 3},
			LLCWayBytes: 7 * 64, LLCWays: 6}},
		{"llc-16-way", HierarchyConfig{
			L1: Config{SizeBytes: 1 << 10, Ways: 4}, L2: Config{SizeBytes: 4 << 10, Ways: 8},
			LLCWayBytes: 2 << 10, LLCWays: 16}},
	}
	for gi, g := range geoms {
		llc := NewHierarchy(g.cfg).llc
		// The streams cover at most 512 LLC sets, with four times the
		// lines those sets hold, so every level evicts within 40k
		// accesses even at the platform's 65536-set LLC.
		window := min(llc.sets, 512)
		span := 4 * window * llc.ways
		n := max(40_000, 2*span)
		for si, kind := range []string{"uniform", "skewed", "streaming"} {
			t.Run(g.name+"/"+kind, func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(gi*10 + si + 1)))
				got, want := NewHierarchy(g.cfg), newProbeHierarchy(g.cfg)
				runBoth(t, got, want, hierStream(kind, rng, n, span, window, llc.sets))

				clone := got.Clone()
				tail := hierStream(kind, rng, n/4, span, window, llc.sets)
				oracle := runBoth(t, got, want, tail)
				replay(t, clone, tail, oracle)
				if d := diffState(clone.state(), want.state()); d != "" {
					t.Fatalf("clone ends in a different state from the oracle: %s", d)
				}
			})
		}
	}
}
