package pac

import (
	"m5/internal/mem"
	"m5/internal/sketch"
	"m5/internal/trace"
)

// CachedCounter is the §3 "Scalability" first approach: when the SRAM unit
// cannot hold a counter for every page of a large CXL DRAM, the SRAM acts
// as a set-associative cache of counters. On a miss with a full set, the
// controller evicts one counter, accumulates its value into the 64-bit
// access-count table (a D2H/D2D memory write), and starts the newcomer at
// 1. Counts remain exact — eviction moves them, never drops them — but
// reading a key's precise total requires both structures.
type CachedCounter struct {
	cfg     Config
	sets    int
	ways    int
	tags    []uint64
	counts  []uint64
	valid   []bool
	tick    uint64
	lru     []uint64
	spill   *sketch.CountTable // the in-memory access-count table
	total   uint64
	dropped uint64
	evicts  uint64
	hits    uint64
	misses  uint64
}

// CachedConfig sizes the counter cache.
type CachedConfig struct {
	// Config carries granularity and monitored region; CounterBits is
	// unused (cache entries are wide).
	Config
	// Entries is the number of SRAM counter slots (must be a positive
	// multiple of Ways).
	Entries int
	// Ways is the set associativity (default 4).
	Ways int
}

// NewCached builds a counter cache over the region.
func NewCached(cfg CachedConfig) *CachedCounter {
	if cfg.Region.Size() == 0 || cfg.Region.Start.PageOffset() != 0 {
		panic("pac: cached counter needs a page-aligned, non-empty region")
	}
	if cfg.Ways == 0 {
		cfg.Ways = 4
	}
	if cfg.Entries <= 0 || cfg.Entries%cfg.Ways != 0 {
		panic("pac: cached counter entries must be a positive multiple of ways")
	}
	return &CachedCounter{
		cfg:    cfg.Config,
		sets:   cfg.Entries / cfg.Ways,
		ways:   cfg.Ways,
		tags:   make([]uint64, cfg.Entries),
		counts: make([]uint64, cfg.Entries),
		valid:  make([]bool, cfg.Entries),
		lru:    make([]uint64, cfg.Entries),
		spill:  sketch.NewCountTable(cfg.Entries),
	}
}

// Observe implements trace.Sink.
//
//m5:hotpath
func (c *CachedCounter) Observe(a trace.Access) {
	key, ok := c.key(a.Addr)
	if !ok {
		c.dropped++
		return
	}
	c.total++
	set := int(key % uint64(c.sets))
	base := set * c.ways
	c.tick++
	// Hit?
	for w := 0; w < c.ways; w++ {
		i := base + w
		if c.valid[i] && c.tags[i] == key {
			c.counts[i]++
			c.lru[i] = c.tick
			c.hits++
			return
		}
	}
	c.misses++
	// Fill an invalid way if any.
	pick := -1
	for w := 0; w < c.ways; w++ {
		if !c.valid[base+w] {
			pick = base + w
			break
		}
	}
	if pick < 0 {
		// Evict the LRU counter into the access-count table.
		pick = base
		for w := 1; w < c.ways; w++ {
			if c.lru[base+w] < c.lru[pick] {
				pick = base + w
			}
		}
		c.spill.Inc(c.tags[pick], c.counts[pick])
		c.evicts++
	}
	c.tags[pick] = key
	c.counts[pick] = 1
	c.valid[pick] = true
	c.lru[pick] = c.tick
}

//m5:hotpath
func (c *CachedCounter) key(a mem.PhysAddr) (uint64, bool) {
	if !c.cfg.Region.Contains(a) {
		return 0, false
	}
	if c.cfg.Granularity == WordCounter {
		return uint64(a.Word()), true
	}
	return uint64(a.Page()), true
}

// Count returns the exact access count of a key (resident + spilled).
func (c *CachedCounter) Count(key uint64) uint64 {
	total := c.spill.Get(key)
	set := int(key % uint64(c.sets))
	base := set * c.ways
	for w := 0; w < c.ways; w++ {
		i := base + w
		if c.valid[i] && c.tags[i] == key {
			total += c.counts[i]
		}
	}
	return total
}

// Counts returns the full access-count table (resident counters flushed
// into a fresh map).
func (c *CachedCounter) Counts() map[uint64]uint64 {
	out := make(map[uint64]uint64, c.spill.Len())
	c.spill.Range(func(k, v uint64) bool {
		if v != 0 {
			out[k] = v
		}
		return true
	})
	for i, v := range c.valid {
		if v {
			out[c.tags[i]] += c.counts[i]
		}
	}
	return out
}

// Total returns the number of in-region accesses observed.
func (c *CachedCounter) Total() uint64 { return c.total }

// Dropped returns out-of-region accesses ignored.
func (c *CachedCounter) Dropped() uint64 { return c.dropped }

// Evictions returns how many counters were written back to the table.
func (c *CachedCounter) Evictions() uint64 { return c.evicts }

// HitRate returns the SRAM counter-cache hit rate.
func (c *CachedCounter) HitRate() float64 {
	if c.hits+c.misses == 0 {
		return 0
	}
	return float64(c.hits) / float64(c.hits+c.misses)
}

// Reset clears all state.
func (c *CachedCounter) Reset() {
	for i := range c.valid {
		c.valid[i] = false
		c.counts[i] = 0
		c.tags[i] = 0
		c.lru[i] = 0
	}
	c.spill.Reset()
	c.total, c.dropped, c.evicts, c.hits, c.misses, c.tick = 0, 0, 0, 0, 0, 0
}
