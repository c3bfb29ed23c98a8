// Package obs is the simulator's observability plane: a scoped metrics
// registry (counters, gauges, fixed-bucket histograms) plus a bounded
// ring-buffer event log.
//
// The design contract, in priority order:
//
//  1. Disabled means free. Every layer holds metric handles (*Counter,
//     *Histogram) or a *Registry that may be nil; every mutating method
//     has a nil receiver check and returns immediately. A run without a
//     registry therefore pays one predictable branch per update site and
//     allocates nothing — the same discipline PR 1 applied to the cache
//     and fault hot paths.
//
//  2. Enabled stays off the allocator. Handles are interned at
//     construction time (NewRunner, NewHierarchy, ...), never looked up
//     on the hot path; Inc/Add/Set/Observe mutate a preallocated word or
//     bucket slice. Only registration (Counter, Gauge, Histogram, Scope)
//     and Emit touch the heap, and those run at setup time or at rare
//     policy-decision points.
//
//  3. Aggregation is deterministic. A Registry is single-goroutine by
//     design (one per sim.Runner, matching the simulator's
//     one-goroutine-per-cell execution model). Parallel harnesses give
//     every cell its own registry and merge the resulting Snapshots in
//     submission order — the internal/parallel discipline — and Merge
//     uses only commutative, associative folds (sum for counters and
//     histogram buckets, max for gauges), so the worker count can never
//     show up in the merged output.
//
// Metric names are dot-scoped: a Registry created by Scope("cache")
// prefixes everything registered through it with "cache.", so the layers
// stay ignorant of where they sit in the tree.
package obs

import "sort"

// state is the shared spine of a registry tree: all scopes created from
// one New() call intern their metrics here, so a single Snapshot sees
// every layer.
type state struct {
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	events     *EventLog
}

// Registry hands out named metric handles. The zero *Registry (nil) is
// the disabled plane: every method on it, and on any handle obtained
// from it, is a no-op.
//
// A Registry is NOT safe for concurrent use; give each worker its own
// and merge Snapshots (see Snapshot.Merge).
type Registry struct {
	root *state
	// prefix ("cache.") is prepended to registered names; scope
	// ("cache") tags emitted events. Both empty at the root.
	prefix string
	scope  string
}

// New returns an enabled registry with no event log.
func New() *Registry {
	return &Registry{root: &state{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}}
}

// NewWithEvents returns an enabled registry whose Emit calls record into
// a bounded ring buffer holding the most recent capacity events.
func NewWithEvents(capacity int) *Registry {
	r := New()
	r.root.events = newEventLog(capacity)
	return r
}

// Scope returns a child registry that prefixes every metric name with
// name + ".". Scoping a nil registry returns nil, so layers can scope
// unconditionally.
func (r *Registry) Scope(name string) *Registry {
	if r == nil {
		return nil
	}
	return &Registry{root: r.root, prefix: r.prefix + name + ".", scope: r.prefix + name}
}

// Counter interns and returns the named counter. On a nil registry it
// returns nil — a valid, permanently-zero counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	full := r.prefix + name
	c, ok := r.root.counters[full]
	if !ok {
		c = &Counter{}
		r.root.counters[full] = c
	}
	return c
}

// Gauge interns and returns the named gauge; nil registry yields nil.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	full := r.prefix + name
	g, ok := r.root.gauges[full]
	if !ok {
		g = &Gauge{}
		r.root.gauges[full] = g
	}
	return g
}

// Histogram interns and returns the named fixed-bucket histogram. bounds
// are ascending inclusive upper bounds; one overflow bucket is added
// beyond the last. The bounds of the first registration win; later
// callers share the same buckets. Nil registry yields nil.
func (r *Registry) Histogram(name string, bounds []uint64) *Histogram {
	if r == nil {
		return nil
	}
	full := r.prefix + name
	h, ok := r.root.histograms[full]
	if !ok {
		b := make([]uint64, len(bounds))
		copy(b, bounds)
		h = &Histogram{bounds: b, counts: make([]uint64, len(bounds)+1)}
		r.root.histograms[full] = h
	}
	return h
}

// Emit appends an event tagged with this registry's scope. A no-op when
// the registry is nil or was built without an event log (New rather
// than NewWithEvents).
//
//m5:hotpath
func (r *Registry) Emit(timeNs uint64, kind string, subject, value uint64) {
	if r == nil || r.root.events == nil {
		return
	}
	r.root.events.append(Event{TimeNs: timeNs, Scope: r.scope, Kind: kind, Subject: subject, Value: value})
}

// Events returns the registry's event log, or nil when disabled.
func (r *Registry) Events() *EventLog {
	if r == nil {
		return nil
	}
	return r.root.events
}

// Counter is a monotonically increasing uint64. All methods are nil-safe.
type Counter struct{ v uint64 }

// Inc adds 1.
//
//m5:hotpath
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v++
}

// Add adds n.
//
//m5:hotpath
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v += n
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a last-write-wins uint64 level (resident pages, period). All
// methods are nil-safe.
type Gauge struct{ v uint64 }

// Set overwrites the level.
//
//m5:hotpath
func (g *Gauge) Set(v uint64) {
	if g == nil {
		return
	}
	g.v = v
}

// Value returns the current level (0 on nil).
func (g *Gauge) Value() uint64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Histogram counts observations into fixed buckets: counts[i] holds
// observations <= bounds[i] (and greater than bounds[i-1]); the final
// bucket is the overflow. All methods are nil-safe.
type Histogram struct {
	bounds []uint64
	counts []uint64
}

// Observe records one observation. Bucket search is linear: histograms
// here have a handful of buckets and the common case (latencies near the
// low end) exits early without touching most of the slice.
//
//m5:hotpath
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
			return
		}
	}
	h.counts[len(h.counts)-1]++
}

// Count returns the total number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for _, c := range h.counts {
		n += c
	}
	return n
}

// sortedKeys returns map keys in lexical order, for deterministic
// snapshot iteration.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
