// Package pac models the paper's CXL-driven profiling hardware (§3): the
// Page Access Counter (PAC) and Word Access Counter (WAC). Both snoop every
// address travelling from the CXL IP to the memory controllers and keep an
// exact L-bit saturating count per 4KB page (PAC) or 64B word (WAC) in an
// SRAM unit. Saturated counters spill into 64-bit counters in an
// access-count table allocated in host or device memory, so the host CPU
// can read precise totals after a run.
//
// The SRAM unit is exposed to the host as a windowed MMIO region (§3
// "Software"): a 2MB MMIO BAR split into 1MB of counter window and 1MB of
// configuration/control registers, with a base-address register selecting
// which 1MB slice of the SRAM is visible.
package pac

import (
	"fmt"
	"maps"
	"slices"
	"sort"

	"m5/internal/mem"
	"m5/internal/sketch"
	"m5/internal/trace"
)

// Granularity selects page or word counting.
type Granularity int

const (
	// PageCounter counts per 4KB page (PAC).
	PageCounter Granularity = iota
	// WordCounter counts per 64B word (WAC).
	WordCounter
)

// String names the granularity.
func (g Granularity) String() string {
	if g == WordCounter {
		return "wac"
	}
	return "pac"
}

// Default hardware parameters from §3.
const (
	// DefaultSRAMBytes is the SRAM unit capacity (4MB).
	DefaultSRAMBytes = 4 << 20
	// DefaultPACBits is the per-page counter width; a 16-bit count
	// saturates only after ~20s even for memory-intensive workloads.
	DefaultPACBits = 16
	// DefaultWACBits is the per-word counter width; WAC maps each word of
	// a 128MB region to a 4-bit counter.
	DefaultWACBits = 4
	// DefaultWACRegionBytes is the WAC monitoring window (128MB at a time).
	DefaultWACRegionBytes = 128 << 20
	// MMIOWindowBytes is the counter window visible through MMIO (1MB of
	// the 2MB region; the other 1MB holds config/control registers).
	MMIOWindowBytes = 1 << 20
)

// Config describes a PAC or WAC instance.
type Config struct {
	// Granularity is page (PAC) or word (WAC).
	Granularity Granularity
	// Region is the physical address range monitored. Accesses outside
	// the region are ignored (§3 "Scalability", second approach).
	Region mem.Range
}

// withDefaults fills zero fields so that, like the rest of the config
// structs in this repo, the zero value is a valid configuration: a
// DefaultWACRegionBytes window starting at physical address 0.
func (c Config) withDefaults() Config {
	if c.Region.Size() == 0 {
		c.Region = mem.NewRange(0, DefaultWACRegionBytes)
	}
	return c
}

// counterBits is L, the §3 SRAM counter width for the granularity.
func (g Granularity) counterBits() uint {
	if g == WordCounter {
		return DefaultWACBits
	}
	return DefaultPACBits
}

// Counter is an exact access counter: PAC or WAC. It implements trace.Sink.
type Counter struct {
	cfg      Config
	max      uint64   // saturation value: 2^L - 1
	sram     []uint64 // one entry per page/word in the region
	spill    map[uint64]uint64
	firstKey uint64
	total    uint64
	dropped  uint64 // accesses outside the monitored region
	spills   uint64 // saturation spill events
}

// New builds a counter from the config, with L=16 for PAC / L=4 for WAC
// and a 128MB region from address 0 when none is set; an explicitly set
// region must be page-aligned.
func New(cfg Config) *Counter {
	cfg = cfg.withDefaults()
	if cfg.Region.Start.PageOffset() != 0 {
		panic("pac: region must be page-aligned")
	}
	var entries, first uint64
	if cfg.Granularity == WordCounter {
		entries = cfg.Region.Words()
		first = uint64(cfg.Region.Start.Word())
	} else {
		entries = cfg.Region.Pages()
		first = uint64(cfg.Region.Start.Page())
	}
	return &Counter{
		cfg:      cfg,
		max:      (uint64(1) << cfg.Granularity.counterBits()) - 1,
		sram:     make([]uint64, entries),
		spill:    make(map[uint64]uint64),
		firstKey: first,
	}
}

// NewPAC builds a page counter over the region with default parameters.
func NewPAC(region mem.Range) *Counter {
	return New(Config{Granularity: PageCounter, Region: region})
}

// NewWAC builds a word counter over the region with default parameters.
// The region conventionally covers at most DefaultWACRegionBytes at a time.
func NewWAC(region mem.Range) *Counter {
	return New(Config{Granularity: WordCounter, Region: region})
}

// Config returns the counter's configuration.
func (c *Counter) Config() Config { return c.cfg }

// key maps an address to the counter key, or ok=false when outside the
// monitored region.
//
//m5:hotpath
func (c *Counter) key(a mem.PhysAddr) (uint64, bool) {
	if !c.cfg.Region.Contains(a) {
		return 0, false
	}
	if c.cfg.Granularity == WordCounter {
		return uint64(a.Word()), true
	}
	return uint64(a.Page()), true
}

// ObserveN implements trace.Sink: count the DRAM access n times in one
// operation (1 on the exact engine, a batch's weight on the sampled
// tier). A saturated SRAM counter spills into the 64-bit access-count
// table via a D2H/D2D write and restarts at 1; the spill arithmetic
// reproduces n sequential counts in closed form: from an SRAM value v, the
// first max-v occurrences fill the counter; after that every block of max
// occurrences spends one on a spill event (accumulate max into the table,
// restart at 1) and the rest on increments.
//
//m5:hotpath
func (c *Counter) ObserveN(a trace.Access, n uint64) {
	if n == 0 {
		return
	}
	key, ok := c.key(a.Addr)
	if !ok {
		c.dropped += n
		return
	}
	c.total += n
	i := key - c.firstKey
	room := c.max - c.sram[i]
	if n <= room {
		c.sram[i] += n
		return
	}
	//m5:coldpath saturation: identical spill totals to n unit counts.
	r := n - room // occurrences arriving with the counter saturated
	events := (r-1)/c.max + 1
	c.spill[key] += events * c.max
	c.spills += events
	c.sram[i] = (r-1)%c.max + 1
}

// Count returns the precise access count of the page/word key (SRAM value
// plus spilled amount).
func (c *Counter) Count(key uint64) uint64 {
	if key < c.firstKey || key-c.firstKey >= uint64(len(c.sram)) {
		return 0
	}
	return c.spill[key] + c.sram[key-c.firstKey]
}

// CountPage returns the count of a PFN (PAC only; 0 for WAC).
func (c *Counter) CountPage(p mem.PFN) uint64 {
	if c.cfg.Granularity != PageCounter {
		return 0
	}
	return c.Count(uint64(p))
}

// CountWord returns the count of a word (WAC only; 0 for PAC).
func (c *Counter) CountWord(w mem.WordNum) uint64 {
	if c.cfg.Granularity != WordCounter {
		return 0
	}
	return c.Count(uint64(w))
}

// Total returns the number of in-region accesses observed.
func (c *Counter) Total() uint64 { return c.total }

// Dropped returns the number of accesses ignored as out-of-region.
func (c *Counter) Dropped() uint64 { return c.dropped }

// Spills returns the number of counter-saturation spill events.
func (c *Counter) Spills() uint64 { return c.spills }

// Entries returns the number of SRAM counter entries.
func (c *Counter) Entries() int { return len(c.sram) }

// TopK returns the K hottest keys by precise count, descending, skipping
// zero-count keys. This is the host-side "fetch all counts and sort" path
// whose latency motivates HPT/HWT (§5.1).
func (c *Counter) TopK(k int) []sketch.KeyCount {
	out := make([]sketch.KeyCount, 0, k)
	for i, v := range c.sram {
		key := c.firstKey + uint64(i)
		total := v + c.spill[key]
		if total == 0 {
			continue
		}
		out = append(out, sketch.KeyCount{Key: key, Count: total})
	}
	sketch.SortKeyCounts(out)
	if k > 0 && k < len(out) {
		out = out[:k]
	}
	return out
}

// Counts returns the full access-count table: every key with a nonzero
// precise count. The map is freshly allocated.
func (c *Counter) Counts() map[uint64]uint64 {
	out := make(map[uint64]uint64)
	for i, v := range c.sram {
		key := c.firstKey + uint64(i)
		if t := v + c.spill[key]; t != 0 {
			out[key] = t
		}
	}
	return out
}

// NonZero returns the number of keys with a nonzero count.
func (c *Counter) NonZero() int {
	n := 0
	for i, v := range c.sram {
		if v != 0 || c.spill[c.firstKey+uint64(i)] != 0 {
			n++
		}
	}
	return n
}

// SumCounts sums the precise counts of the given keys; used by the
// access-count-ratio metric (§4.1 steps S4-S5).
func (c *Counter) SumCounts(keys []uint64) uint64 {
	var sum uint64
	for _, k := range keys {
		sum += c.Count(k)
	}
	return sum
}

// AccessCountRatio computes the paper's headline metric: the summed precise
// counts of the provided keys divided by the summed counts of the true
// top-K keys, where K = len(keys) (§4.1). Returns 0 when the counter saw
// no accesses.
func (c *Counter) AccessCountRatio(keys []uint64) float64 {
	if len(keys) == 0 {
		return 0
	}
	top := c.TopK(len(keys))
	var best uint64
	for _, kc := range top {
		best += kc.Count
	}
	if best == 0 {
		return 0
	}
	return float64(c.SumCounts(keys)) / float64(best)
}

// Clone returns an independent copy of the counter: SRAM, spill table
// and statistics.
func (c *Counter) Clone() *Counter {
	d := *c
	d.sram = slices.Clone(c.sram)
	d.spill = maps.Clone(c.spill)
	return &d
}

// Reset clears all counters, spills, and statistics.
func (c *Counter) Reset() {
	for i := range c.sram {
		c.sram[i] = 0
	}
	c.spill = make(map[uint64]uint64)
	c.total, c.dropped, c.spills = 0, 0, 0
}

// WordsAccessedPerPage returns, for each page with at least one counted
// word, the number of unique 64B words accessed (WAC only). This feeds the
// sparsity analysis of Figure 4.
func (c *Counter) WordsAccessedPerPage() map[mem.PFN]int {
	if c.cfg.Granularity != WordCounter {
		return nil
	}
	out := make(map[mem.PFN]int)
	for i, v := range c.sram {
		key := c.firstKey + uint64(i)
		if v == 0 && c.spill[key] == 0 {
			continue
		}
		out[mem.WordNum(key).Page()]++
	}
	return out
}

// SparsityCDF returns P(page has at most t unique words accessed) for each
// threshold, over pages with at least one access (Figure 4's y-axis).
func (c *Counter) SparsityCDF(thresholds []int) []float64 {
	per := c.WordsAccessedPerPage()
	out := make([]float64, len(thresholds))
	if len(per) == 0 {
		return out
	}
	counts := make([]int, 0, len(per))
	for _, n := range per {
		counts = append(counts, n)
	}
	sort.Ints(counts)
	for i, t := range thresholds {
		idx := sort.SearchInts(counts, t+1)
		out[i] = float64(idx) / float64(len(counts))
	}
	return out
}

// MMIO returns the windowed MMIO view of the SRAM unit.
func (c *Counter) MMIO() *MMIO { return &MMIO{c: c} }

// MMIO models the 2MB MMIO BAR of §3: a 1MB counter window plus
// configuration registers. SetWindowBase selects which 1MB-aligned slice of
// the (logical) SRAM image is visible; Read returns the counter at a byte
// offset within the window.
type MMIO struct {
	c    *Counter
	base uint64 // window base, in bytes into the SRAM image
}

// entryBytes is the width of one SRAM counter as seen through MMIO. The
// hardware packs L-bit counters; the MMIO view rounds up to bytes.
func (m *MMIO) entryBytes() uint64 {
	return (uint64(m.c.cfg.Granularity.counterBits()) + 7) / 8
}

// SRAMImageBytes returns the size of the full SRAM image in bytes.
func (m *MMIO) SRAMImageBytes() uint64 {
	return uint64(len(m.c.sram)) * m.entryBytes()
}

// SetWindowBase programs the base-address configuration register. The base
// must be MMIOWindowBytes-aligned and within the SRAM image.
func (m *MMIO) SetWindowBase(base uint64) error {
	if base%MMIOWindowBytes != 0 {
		return fmt.Errorf("pac: window base %#x not 1MB-aligned", base)
	}
	if base >= m.SRAMImageBytes() && base != 0 {
		return fmt.Errorf("pac: window base %#x beyond SRAM image (%#x bytes)",
			base, m.SRAMImageBytes())
	}
	m.base = base
	return nil
}

// WindowBase returns the current window base register value.
func (m *MMIO) WindowBase() uint64 { return m.base }

// Read returns the raw SRAM counter value at the byte offset within the
// current window. Only the saturating SRAM value is visible through MMIO;
// spilled totals live in the access-count table in memory.
func (m *MMIO) Read(offset uint64) (uint64, error) {
	if offset >= MMIOWindowBytes {
		return 0, fmt.Errorf("pac: MMIO offset %#x beyond 1MB window", offset)
	}
	eb := m.entryBytes()
	if offset%eb != 0 {
		return 0, fmt.Errorf("pac: MMIO offset %#x not %d-byte aligned", offset, eb)
	}
	idx := (m.base + offset) / eb
	if idx >= uint64(len(m.c.sram)) {
		return 0, fmt.Errorf("pac: MMIO read beyond SRAM (%d entries)", len(m.c.sram))
	}
	return m.c.sram[idx], nil
}

// ReadAll walks the whole SRAM image through the 1MB window, re-programming
// the base register as needed, and returns every raw counter value. It is
// the software sequence described in §3 for accessing 4MB of counts
// through a 1MB window.
func (m *MMIO) ReadAll() ([]uint64, error) {
	out := make([]uint64, 0, len(m.c.sram))
	eb := m.entryBytes()
	image := m.SRAMImageBytes()
	savedBase := m.base
	defer func() { m.base = savedBase }()
	for base := uint64(0); base < image; base += MMIOWindowBytes {
		if err := m.SetWindowBase(base); err != nil {
			return nil, err
		}
		limit := image - base
		if limit > MMIOWindowBytes {
			limit = MMIOWindowBytes
		}
		for off := uint64(0); off < limit; off += eb {
			v, err := m.Read(off)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
	}
	return out, nil
}
