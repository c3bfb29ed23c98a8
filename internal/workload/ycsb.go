package workload

import (
	"fmt"
	"math/rand"
)

// YCSBKind selects one of the YCSB core workloads. The paper evaluates
// Redis under YCSB-A; the remaining mixes are provided so policies can be
// studied across the full request spectrum (read-heavy B/C shrink the
// write traffic, D shifts the hot set over time, E adds scans, F adds
// read-modify-writes).
type YCSBKind byte

// The six YCSB core workloads.
const (
	// YCSBA is 50% reads / 50% updates, zipfian.
	YCSBA YCSBKind = 'A'
	// YCSBB is 95% reads / 5% updates, zipfian.
	YCSBB YCSBKind = 'B'
	// YCSBC is 100% reads, zipfian.
	YCSBC YCSBKind = 'C'
	// YCSBD is 95% reads / 5% inserts with a "latest" distribution: reads
	// cluster on recently inserted keys, so the hot set drifts — the
	// phase-change stressor for migration policies.
	YCSBD YCSBKind = 'D'
	// YCSBE is 95% scans / 5% inserts: each scan reads a run of
	// consecutive keys.
	YCSBE YCSBKind = 'E'
	// YCSBF is 50% reads / 50% read-modify-writes, zipfian.
	YCSBF YCSBKind = 'F'
)

// String names the workload (lower case, matching the catalog names).
func (k YCSBKind) String() string { return fmt.Sprintf("ycsb-%c", byte(k)-'A'+'a') }

const (
	// slotBytes is the slab slot size (allocation class). Values occupy a
	// few 64B words of their slot, so even a fully exercised page has
	// most of its words untouched.
	slotBytes = 1024
	// kvsZipfS is the request-distribution skew exponent in math/rand's
	// Zipf parameterization (must exceed 1); 1.1 matches YCSB's
	// zipfian(0.99) head mass over these key counts.
	kvsZipfS = 1.1
	// scanLen is YCSB-E's maximum scan length.
	scanLen = 16
)

// YCSBConfig parameterizes a YCSB run over the slab key-value store: a
// hash-bucket array, an object-header array and slab value slots. The
// paper's in-memory stores are this model under YCSB-A (Redis, Memcached
// and CacheLib in Figure 4; Redis in the main evaluation). The decisive
// property the paper measures is allocator-induced sparsity: 86%/76%/74%
// of Redis/Memcached/CacheLib pages see ≤16 of 64 words.
type YCSBConfig struct {
	// Name labels the stream ("redis", "mcd", "c.-lib"); empty names it
	// after Kind ("ycsb-a").
	Name string
	// Kind is the core workload letter.
	Kind YCSBKind
	// Keys is the maximum key population (D/E start at half and insert
	// toward it, then recycle).
	Keys uint64
	// MinValueWords / MaxValueWords bound the words an object's header +
	// value actually occupy inside its slot.
	MinValueWords int
	MaxValueWords int
	// Seed drives the request stream.
	Seed int64
}

func (c YCSBConfig) withDefaults() YCSBConfig {
	if c.Kind == 0 {
		c.Kind = YCSBA
	}
	if c.Name == "" {
		c.Name = c.Kind.String()
	}
	if c.Keys == 0 {
		c.Keys = 1 << 16
	}
	if c.MinValueWords == 0 {
		c.MinValueWords = 2
	}
	if c.MaxValueWords == 0 {
		c.MaxValueWords = 4
	}
	return c
}

// NewYCSB builds the requested core workload over the slab KVS layout.
// Every operation ends with an EndOp marker so the simulator can report
// p99 operation latency.
func NewYCSB(cfg YCSBConfig) Generator {
	cfg = cfg.withDefaults()
	var l Layout
	buckets := l.Place(cfg.Keys, 8)       // hash table: 8B bucket heads
	meta := l.Place(cfg.Keys, 64)         // object headers: 1 line each
	slabs := l.Place(cfg.Keys, slotBytes) // value slots
	rng := rand.New(rand.NewSource(cfg.Seed))
	zipf := rand.NewZipf(rng, kvsZipfS, 1, cfg.Keys-1)

	// Per-key deterministic properties: slot placement permutation (slab
	// allocators scatter neighbours) and value length in words.
	slot := rng.Perm(int(cfg.Keys))
	words := make([]int, cfg.Keys)
	span := cfg.MaxValueWords - cfg.MinValueWords + 1
	for i := range words {
		words[i] = cfg.MinValueWords + rng.Intn(span)
	}

	// D and E grow the population via inserts.
	population := cfg.Keys
	if cfg.Kind == YCSBD || cfg.Kind == YCSBE {
		population = cfg.Keys / 2
		if population == 0 {
			population = 1
		}
	}

	// touch is one hash lookup: the bucket head, then the object header,
	// then the value's words inside its slab slot; an update also
	// rewrites the header (LRU/clock bits).
	touch := func(e *Emitter, key uint64, write bool) {
		bucket := (key * 11400714819323198485) % cfg.Keys
		e.Load(buckets.At(bucket))
		e.Load(meta.At(key))
		base := slabs.At(uint64(slot[key]))
		for w := 0; w < words[key]; w++ {
			off := base + uint64(w)*64
			if write {
				e.Store(off)
			} else {
				e.Load(off)
			}
		}
		if write {
			e.Store(meta.At(key))
		}
	}

	// pick draws a key: zipfian over the current population, or "latest"
	// (zipf distance back from the newest insert) for D.
	pick := func() uint64 {
		switch cfg.Kind {
		case YCSBD:
			back := zipf.Uint64() % population
			return (population - 1) - back
		default:
			return zipf.Uint64() % population
		}
	}

	insert := func(e *Emitter) {
		if population < cfg.Keys {
			population++
		}
		touch(e, population-1, true)
	}

	prog := func(e *Emitter) {
		for {
			if cfg.Kind == YCSBA {
				// The key, then the read/update coin, updating on its
				// upper half: the draw order of the paper's Redis runs.
				// The other mixes flip their coin first.
				key := pick()
				touch(e, key, rng.Float64() >= 0.5)
				e.EndOp()
				continue
			}
			r := rng.Float64()
			switch cfg.Kind {
			case YCSBB:
				touch(e, pick(), r < 0.05)
			case YCSBC:
				touch(e, pick(), false)
			case YCSBD:
				if r < 0.05 {
					insert(e)
				} else {
					touch(e, pick(), false)
				}
			case YCSBE:
				if r < 0.05 {
					insert(e)
				} else {
					start := pick()
					n := 1 + rng.Intn(scanLen)
					for i := 0; i < n; i++ {
						k := start + uint64(i)
						if k >= population {
							break
						}
						touch(e, k, false)
					}
				}
			case YCSBF:
				key := pick()
				touch(e, key, false)
				if r < 0.5 {
					touch(e, key, true)
				}
			default:
				panic(fmt.Sprintf("workload: unknown YCSB kind %q", byte(cfg.Kind)))
			}
			e.EndOp()
		}
	}
	return newBase(cfg.Name, l.Footprint(), prog)
}

// ycsbBuilder is the catalog builder of one YCSB stream over values of
// 2..maxWords words; an empty name names it after the kind.
func ycsbBuilder(name string, kind YCSBKind, maxWords int) Builder {
	return func(scale Scale, seed int64) (Generator, error) {
		return NewYCSB(YCSBConfig{
			Name: name, Kind: kind, Keys: kvsKeys(scale),
			MaxValueWords: maxWords, Seed: seed,
		}), nil
	}
}

func init() {
	// The paper's stores are YCSB-A over their value sizes: Redis over
	// 2-4 words, Memcached's 1KB chunks a bit denser, CacheLib denser
	// still.
	Register("redis", ycsbBuilder("redis", YCSBA, 4))
	mcd := ycsbBuilder("mcd", YCSBA, 6)
	Register("mcd", mcd)
	Register("memcached", mcd)
	clib := ycsbBuilder("c.-lib", YCSBA, 7)
	Register("c.-lib", clib)
	Register("cachelib", clib)
	Register("ycsb-a", ycsbBuilder("", YCSBA, 4))
	Register("ycsb-b", ycsbBuilder("", YCSBB, 4))
	Register("ycsb-c", ycsbBuilder("", YCSBC, 4))
	Register("ycsb-d", ycsbBuilder("", YCSBD, 4))
	Register("ycsb-e", ycsbBuilder("", YCSBE, 4))
	Register("ycsb-f", ycsbBuilder("", YCSBF, 4))
}
