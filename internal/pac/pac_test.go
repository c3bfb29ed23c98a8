package pac

import (
	"math/rand"
	"testing"
	"testing/quick"

	"m5/internal/mem"
	"m5/internal/trace"
)

func testRegion(pages uint64) mem.Range {
	return mem.NewRange(0x1000_0000, pages*mem.PageSize)
}

func TestPACCountsExactly(t *testing.T) {
	r := testRegion(16)
	p := NewPAC(r)
	base := r.Start
	for i := 0; i < 5; i++ {
		p.ObserveN(trace.Access{Addr: base}, 1)
	}
	for i := 0; i < 3; i++ {
		p.ObserveN(trace.Access{Addr: base + mem.PageSize + 64}, 1)
	}
	if got := p.CountPage(base.Page()); got != 5 {
		t.Errorf("page 0 count = %d, want 5", got)
	}
	if got := p.CountPage(base.Page() + 1); got != 3 {
		t.Errorf("page 1 count = %d, want 3", got)
	}
	if p.Total() != 8 {
		t.Errorf("Total = %d", p.Total())
	}
	if p.NonZero() != 2 {
		t.Errorf("NonZero = %d", p.NonZero())
	}
}

func TestOutOfRegionDropped(t *testing.T) {
	r := testRegion(4)
	p := NewPAC(r)
	p.ObserveN(trace.Access{Addr: r.End}, 1)
	p.ObserveN(trace.Access{Addr: r.Start - 64}, 1)
	if p.Total() != 0 || p.Dropped() != 2 {
		t.Errorf("Total=%d Dropped=%d", p.Total(), p.Dropped())
	}
	if p.Count(uint64(r.End.Page())) != 0 {
		t.Error("out-of-region key should count 0")
	}
}

// TestWACWindow pins the §3 scalability mode: a WAC over a window of the
// device counts inside it and drops the rest.
func TestWACWindow(t *testing.T) {
	window := testRegion(4)
	w := NewWAC(window)
	w.ObserveN(trace.Access{Addr: window.Start}, 1)
	w.ObserveN(trace.Access{Addr: window.Start + 10*mem.PageSize}, 1)
	if w.Total() != 1 || w.Dropped() != 1 {
		t.Errorf("WAC window: total=%d dropped=%d", w.Total(), w.Dropped())
	}
}

func TestSaturationSpill(t *testing.T) {
	r := testRegion(2)
	// WAC's 4-bit counters saturate at 15; PAC's 16-bit ones at 65,535.
	for _, tc := range []struct {
		c *Counter
		n uint64
	}{{NewWAC(r), 40}, {NewPAC(r), 1<<DefaultPACBits + 9}} {
		for i := uint64(0); i < tc.n; i++ {
			tc.c.ObserveN(trace.Access{Addr: r.Start}, 1)
		}
		key, _ := tc.c.key(r.Start)
		if got := tc.c.Count(key); got != tc.n {
			t.Errorf("%v count with spills = %d, want %d", tc.c.Config().Granularity, got, tc.n)
		}
		if tc.c.Spills() == 0 {
			t.Errorf("%v: expected at least one spill event", tc.c.Config().Granularity)
		}
	}
}

func TestSpillExactnessProperty(t *testing.T) {
	// Precise counts must be exact however often the narrow WAC counters
	// saturate: 2000 accesses over 8 words spill each many times.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := testRegion(1)
		c := NewWAC(r)
		truth := map[uint64]uint64{}
		for i := 0; i < 2000; i++ {
			a := r.Start + mem.PhysAddr(64*rng.Intn(8))
			c.ObserveN(trace.Access{Addr: a}, 1)
			truth[uint64(a.Word())]++
		}
		for k, v := range truth {
			if c.Count(k) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestObserveNMatchesUnitObserves pins ObserveN's closed-form spill
// arithmetic, which every exact PAC/WAC count runs through, against n
// calls at weight 1: on PAC's 16-bit and WAC's 4-bit counters, with n
// drawn from 0 to three times the counter's maximum and, on every other
// step, placed on the saturation edge (one short of the room left in the
// SRAM counter, exactly at it, or one past it, possibly a whole spill
// block later), and with out-of-region addresses mixed in.
func TestObserveNMatchesUnitObserves(t *testing.T) {
	r := testRegion(2)
	addrs := []mem.PhysAddr{r.Start, r.Start + 64, r.Start + mem.PageSize + 128, r.End, r.Start - 64}
	for _, newCounter := range []func(mem.Range) *Counter{NewPAC, NewWAC} {
		one, unit := newCounter(r), newCounter(r)
		max := one.max
		rng := rand.New(rand.NewSource(1))
		for step := 0; step < 60; step++ {
			a := trace.Access{Addr: addrs[rng.Intn(len(addrs))]}
			n := uint64(rng.Int63n(int64(3*max) + 1))
			if key, ok := one.key(a.Addr); ok && step%2 == 1 {
				room := max - one.sram[key-one.firstKey]
				n = room + uint64(rng.Intn(2))*max + uint64(rng.Intn(3))
				if n > 0 {
					n--
				}
			}
			one.ObserveN(a, n)
			for i := uint64(0); i < n; i++ {
				unit.ObserveN(a, 1)
			}
			for k := one.firstKey; k < one.firstKey+uint64(one.Entries()); k++ {
				if one.Count(k) != unit.Count(k) {
					t.Fatalf("%v step %d (n=%d): Count(%d) = %d, unit observes give %d",
						one.Config().Granularity, step, n, k, one.Count(k), unit.Count(k))
				}
			}
			if one.Spills() != unit.Spills() || one.Total() != unit.Total() || one.Dropped() != unit.Dropped() {
				t.Fatalf("%v step %d (n=%d): spills/total/dropped = %d/%d/%d, unit observes give %d/%d/%d",
					one.Config().Granularity, step, n, one.Spills(), one.Total(), one.Dropped(),
					unit.Spills(), unit.Total(), unit.Dropped())
			}
		}
		if one.Spills() == 0 || one.Dropped() == 0 {
			t.Errorf("%v: the stream never spilled (%d) or dropped (%d)", one.Config().Granularity, one.Spills(), one.Dropped())
		}
	}
}

func TestWACWordGranularity(t *testing.T) {
	r := testRegion(2)
	w := NewWAC(r)
	p0 := r.Start.Page()
	w.ObserveN(trace.Access{Addr: p0.Word(0).Addr()}, 1)
	w.ObserveN(trace.Access{Addr: p0.Word(0).Addr()}, 1)
	w.ObserveN(trace.Access{Addr: p0.Word(5).Addr()}, 1)
	if got := w.CountWord(p0.Word(0)); got != 2 {
		t.Errorf("word 0 = %d", got)
	}
	if got := w.CountWord(p0.Word(5)); got != 1 {
		t.Errorf("word 5 = %d", got)
	}
	// Cross-granularity accessors return 0.
	if w.CountPage(p0) != 0 {
		t.Error("CountPage on a WAC should be 0")
	}
	pac := NewPAC(r)
	if pac.CountWord(p0.Word(0)) != 0 {
		t.Error("CountWord on a PAC should be 0")
	}
}

func TestWordsAccessedPerPageAndSparsity(t *testing.T) {
	r := testRegion(10)
	w := NewWAC(r)
	first := r.Start.Page()
	// Page 0: 4 unique words; page 1: 40 unique words.
	for i := uint(0); i < 4; i++ {
		w.ObserveN(trace.Access{Addr: first.Word(i).Addr()}, 1)
	}
	for i := uint(0); i < 40; i++ {
		w.ObserveN(trace.Access{Addr: (first + 1).Word(i).Addr()}, 1)
	}
	per := w.WordsAccessedPerPage()
	if per[first] != 4 || per[first+1] != 40 {
		t.Errorf("per-page words = %v", per)
	}
	cdf := w.SparsityCDF([]int{4, 8, 16, 32, 48})
	// One of two pages has <=4 words: 0.5 at every threshold < 40.
	want := []float64{0.5, 0.5, 0.5, 0.5, 1.0}
	for i := range want {
		if cdf[i] != want[i] {
			t.Errorf("SparsityCDF[%d] = %v, want %v", i, cdf[i], want[i])
		}
	}
	// PAC has no sparsity view.
	if NewPAC(r).WordsAccessedPerPage() != nil {
		t.Error("PAC WordsAccessedPerPage should be nil")
	}
	if got := NewWAC(r).SparsityCDF([]int{4}); got[0] != 0 {
		t.Error("empty WAC sparsity should be 0")
	}
}

func TestTopKAndRatio(t *testing.T) {
	r := testRegion(8)
	p := NewPAC(r)
	first := uint64(r.Start.Page())
	// Page i gets i+1 accesses.
	for i := uint64(0); i < 8; i++ {
		for j := uint64(0); j <= i; j++ {
			p.ObserveN(trace.Access{Addr: mem.PFN(first + i).Addr()}, 1)
		}
	}
	top := p.TopK(3)
	if len(top) != 3 || top[0].Key != first+7 || top[0].Count != 8 {
		t.Fatalf("TopK = %+v", top)
	}
	// Perfect keys give ratio 1.
	if r := p.AccessCountRatio([]uint64{first + 7, first + 6, first + 5}); r != 1 {
		t.Errorf("perfect ratio = %v", r)
	}
	// Worst keys: (1+2+3)/(8+7+6) = 6/21.
	got := p.AccessCountRatio([]uint64{first, first + 1, first + 2})
	if want := 6.0 / 21.0; got != want {
		t.Errorf("worst ratio = %v, want %v", got, want)
	}
	if p.AccessCountRatio(nil) != 0 {
		t.Error("empty key list ratio should be 0")
	}
}

func TestReset(t *testing.T) {
	r := testRegion(2)
	p := NewPAC(r)
	p.ObserveN(trace.Access{Addr: r.Start}, 1)
	p.ObserveN(trace.Access{Addr: r.End}, 1) // dropped
	p.Reset()
	if p.Total() != 0 || p.Dropped() != 0 || p.NonZero() != 0 {
		t.Error("Reset should clear everything")
	}
}

func TestCountsSnapshot(t *testing.T) {
	r := testRegion(4)
	p := NewPAC(r)
	p.ObserveN(trace.Access{Addr: r.Start}, 1)
	m := p.Counts()
	if len(m) != 1 || m[uint64(r.Start.Page())] != 1 {
		t.Errorf("Counts = %v", m)
	}
	// Snapshot is independent of later updates.
	p.ObserveN(trace.Access{Addr: r.Start}, 1)
	if m[uint64(r.Start.Page())] != 1 {
		t.Error("snapshot should not alias live counters")
	}
}

func TestConstructorValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	// An empty region is no longer an error: the zero-value Config
	// defaults to a 128MB window from 0 (see defaults_test.go).
	mustPanic("unaligned region", func() {
		New(Config{Region: mem.NewRange(64, mem.PageSize)})
	})
}

func TestMMIOWindowing(t *testing.T) {
	// Region large enough that the SRAM image exceeds one 1MB window:
	// 16-bit counters, 1M pages -> 2MB image.
	pages := uint64(1 << 20)
	r := testRegion(pages)
	p := NewPAC(r)
	m := p.MMIO()
	if m.SRAMImageBytes() != 2<<20 {
		t.Fatalf("SRAM image = %d bytes", m.SRAMImageBytes())
	}
	// Count one access in a page that lives beyond the first window
	// (entry index 600000 -> byte offset 1.2MB).
	idx := uint64(600000)
	p.ObserveN(trace.Access{Addr: mem.PFN(uint64(r.Start.Page()) + idx).Addr()}, 1)

	// Not visible in window 0 at that offset (offset beyond window).
	if _, err := m.Read(idx * 2); err == nil {
		t.Error("read beyond 1MB window should fail")
	}
	// Program the window and read it.
	if err := m.SetWindowBase(MMIOWindowBytes); err != nil {
		t.Fatal(err)
	}
	v, err := m.Read(idx*2 - MMIOWindowBytes)
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Errorf("MMIO read = %d, want 1", v)
	}
}

func TestMMIOValidation(t *testing.T) {
	p := NewPAC(testRegion(16))
	m := p.MMIO()
	if err := m.SetWindowBase(123); err == nil {
		t.Error("unaligned base should fail")
	}
	if err := m.SetWindowBase(64 << 20); err == nil {
		t.Error("base beyond image should fail")
	}
	if _, err := m.Read(1); err == nil {
		t.Error("unaligned offset should fail")
	}
	if _, err := m.Read(16 * 2); err == nil {
		t.Error("read beyond SRAM entries should fail")
	}
	if m.WindowBase() != 0 {
		t.Error("failed SetWindowBase should not change the register")
	}
}

func TestMMIOReadAll(t *testing.T) {
	r := testRegion(32)
	p := NewPAC(r)
	first := uint64(r.Start.Page())
	for i := uint64(0); i < 32; i++ {
		for j := uint64(0); j <= i%3; j++ {
			p.ObserveN(trace.Access{Addr: mem.PFN(first + i).Addr()}, 1)
		}
	}
	all, err := p.MMIO().ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 32 {
		t.Fatalf("ReadAll returned %d entries", len(all))
	}
	for i, v := range all {
		if want := uint64(i%3) + 1; v != want {
			t.Errorf("entry %d = %d, want %d", i, v, want)
		}
	}
}

func TestStringer(t *testing.T) {
	if PageCounter.String() != "pac" || WordCounter.String() != "wac" {
		t.Error("granularity names")
	}
}
