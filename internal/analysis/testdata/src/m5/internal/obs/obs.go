// Package obs is a corpus stub that stands in for the real
// observability plane at its import path, so the path-keyed obsscope
// name checks apply.
package obs

// Registry hands out metric handles.
type Registry struct{ prefix string }

// Counter registers a counter under the scoped name.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	_ = name
	return &Counter{}
}

// Gauge registers a gauge under the scoped name.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	_ = name
	return &Gauge{}
}

// Histogram registers a histogram under the scoped name.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	_ = name
	return &Histogram{}
}

// Scope returns a child registry with the segment appended.
func (r *Registry) Scope(name string) *Registry {
	if r == nil {
		return nil
	}
	return &Registry{prefix: r.prefix + name + "."}
}

// Counter counts events.
type Counter struct{ n uint64 }

// Add is properly guarded.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.n += n
}

// Gauge records a level.
type Gauge struct{ v uint64 }

// Set is properly guarded.
func (g *Gauge) Set(v uint64) {
	if g == nil {
		return
	}
	g.v = v
}

// Histogram records a distribution.
type Histogram struct{ n uint64 }

// Observe is properly guarded.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.n += v
}
