package sketch

// Snapshot support: every counter family can be deep-cloned and restored,
// so a warmed simulator checkpoint can fork per-policy cells that continue
// bit-identically to a from-scratch run. Snapshots are plain deep copies —
// no shared backing arrays — and restoring replays any consumed randomness
// from the construction seed, so a restored counter's future decisions
// match the original's exactly.

// TableSnapshot is a deep copy of a CountTable.
type TableSnapshot struct {
	keys []uint64
	vals []uint64
	used []bool
	n    int
}

// Snapshot deep-copies the table's live generation (the spare generation is
// scratch and carries no state).
func (t *CountTable) Snapshot() TableSnapshot {
	return TableSnapshot{
		keys: append([]uint64(nil), t.keys...),
		vals: append([]uint64(nil), t.vals...),
		used: append([]bool(nil), t.used...),
		n:    t.n,
	}
}

// Restore rewinds the table to a snapshot, reallocating only when the
// capacity differs.
func (t *CountTable) Restore(s TableSnapshot) {
	if len(t.keys) != len(s.keys) {
		t.alloc(len(s.keys))
		t.spareKeys, t.spareVals, t.spareUsed = nil, nil, nil
	}
	copy(t.keys, s.keys)
	copy(t.vals, s.vals)
	copy(t.used, s.used)
	t.n = s.n
}

// CounterSnapshot is the opaque deep-cloned state of a Counter; obtain one
// with SnapshotCounter and apply it with RestoreCounter on a counter of the
// same type and construction parameters.
type CounterSnapshot interface{ counterSnapshot() }

type exactSnapshot struct{ table TableSnapshot }

type countMinSnapshot struct{ counts []uint64 }

type stickySnapshot struct {
	rate  uint64
	table TableSnapshot
	draws uint64
}

type spaceSavingSnapshot struct {
	pool []ssEntry
	// order records the heap as pool-slot indices, so Restore rebuilds the
	// identical heap layout (not just an equivalent one).
	order []int32
	used  int
}

func (exactSnapshot) counterSnapshot()       {}
func (countMinSnapshot) counterSnapshot()    {}
func (stickySnapshot) counterSnapshot()      {}
func (spaceSavingSnapshot) counterSnapshot() {}

// Snapshot deep-copies the exact counter.
func (e *Exact) Snapshot() CounterSnapshot {
	return exactSnapshot{table: e.counts.Snapshot()}
}

// Restore rewinds the exact counter to a snapshot.
func (e *Exact) Restore(s CounterSnapshot) {
	e.counts.Restore(s.(exactSnapshot).table)
}

// Snapshot deep-copies the sketch counters (shape and seeds are fixed at
// construction).
func (c *CountMin) Snapshot() CounterSnapshot {
	return countMinSnapshot{counts: append([]uint64(nil), c.counts...)}
}

// Restore rewinds the sketch to a snapshot taken from a same-shape sketch.
func (c *CountMin) Restore(s CounterSnapshot) {
	copy(c.counts, s.(countMinSnapshot).counts)
}

// Snapshot deep-copies the sampler state including its RNG position.
func (s *StickySampling) Snapshot() CounterSnapshot {
	return stickySnapshot{
		rate:  s.rate,
		table: s.counts.Snapshot(),
		draws: s.src.draws,
	}
}

// Restore rewinds the sampler to a snapshot taken from a sampler of the
// same capacity and seed, replaying the RNG to the recorded position.
func (s *StickySampling) Restore(cs CounterSnapshot) {
	snap := cs.(stickySnapshot)
	s.rate = snap.rate
	s.counts.Restore(snap.table)
	s.src.skipTo(s.seed, snap.draws)
}

// Snapshot deep-copies the counter arena and heap layout.
func (s *SpaceSaving) Snapshot() CounterSnapshot {
	snap := spaceSavingSnapshot{
		pool:  append([]ssEntry(nil), s.pool...),
		order: make([]int32, len(s.entries)),
		used:  s.used,
	}
	for i, e := range s.entries {
		snap.order[i] = e.slot
	}
	return snap
}

// Restore rewinds the counter to a snapshot taken from a same-capacity
// instance. The index is rebuilt from the live entries; its cell layout
// is internal probe-path state and does not affect lookups.
func (s *SpaceSaving) Restore(cs CounterSnapshot) {
	snap := cs.(spaceSavingSnapshot)
	copy(s.pool, snap.pool)
	s.entries = s.entries[:0]
	s.index.Reset()
	for i, slot := range snap.order {
		e := &s.pool[slot]
		e.pos = i
		s.entries = append(s.entries, e)
		s.index.Put(e.key, e.slot)
	}
	s.used = snap.used
}

// SnapshotCounter captures the state of any built-in counter type;
// ok=false for unknown implementations.
func SnapshotCounter(c Counter) (CounterSnapshot, bool) {
	switch c := c.(type) {
	case *Exact:
		return c.Snapshot(), true
	case *CountMin:
		return c.Snapshot(), true
	case *StickySampling:
		return c.Snapshot(), true
	case *SpaceSaving:
		return c.Snapshot(), true
	default:
		return nil, false
	}
}

// RestoreCounter applies a snapshot produced by SnapshotCounter to a
// counter of the matching type; ok=false for unknown implementations.
func RestoreCounter(c Counter, s CounterSnapshot) bool {
	switch c := c.(type) {
	case *Exact:
		c.Restore(s)
	case *CountMin:
		c.Restore(s)
	case *StickySampling:
		c.Restore(s)
	case *SpaceSaving:
		c.Restore(s)
	default:
		return false
	}
	return true
}
