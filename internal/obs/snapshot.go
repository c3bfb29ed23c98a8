package obs

import (
	"fmt"
	"io"
)

// Snapshot is a registry's state frozen into plain maps, suitable for
// JSON reports and cross-worker merging. Map keys serialize in sorted
// order under encoding/json, so two equal snapshots always render to
// identical bytes.
type Snapshot struct {
	Counters   map[string]uint64        `json:"counters,omitempty"`
	Gauges     map[string]uint64        `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnap `json:"histograms,omitempty"`
}

// HistogramSnap is one histogram's frozen buckets: Counts[i] holds
// observations <= Bounds[i]; the final entry of Counts is the overflow
// bucket.
type HistogramSnap struct {
	Bounds []uint64 `json:"bounds"`
	Counts []uint64 `json:"counts"`
}

// Snapshot freezes the registry (any scope of it — the whole tree is
// captured). Returns nil on a nil registry.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	s := &Snapshot{
		Counters:   make(map[string]uint64, len(r.root.counters)),
		Gauges:     make(map[string]uint64, len(r.root.gauges)),
		Histograms: make(map[string]HistogramSnap, len(r.root.histograms)),
	}
	for name, c := range r.root.counters {
		s.Counters[name] = c.v
	}
	for name, g := range r.root.gauges {
		s.Gauges[name] = g.v
	}
	for name, h := range r.root.histograms {
		hs := HistogramSnap{
			Bounds: append([]uint64(nil), h.bounds...),
			Counts: append([]uint64(nil), h.counts...),
		}
		s.Histograms[name] = hs
	}
	return s
}

// Merge folds other into s. Every fold is commutative and associative —
// counters and histogram buckets sum, gauges keep the maximum — so
// merging per-worker snapshots yields the same result in any order, and
// harnesses that merge in submission order (the internal/parallel rule)
// get byte-identical reports at every worker count. Histograms whose
// bounds disagree keep the receiver's buckets untouched; that only
// happens when two code versions disagree, never within one binary.
// Merging nil is a no-op; s must be non-nil.
func (s *Snapshot) Merge(other *Snapshot) {
	if other == nil {
		return
	}
	for name, v := range other.Counters {
		s.Counters[name] += v
	}
	for name, v := range other.Gauges {
		if v > s.Gauges[name] {
			s.Gauges[name] = v
		}
	}
	//m5:orderinvariant each histogram merges into its own name's entry,
	// and boundsEqual is a pure comparison.
	for name, hs := range other.Histograms {
		cur, ok := s.Histograms[name]
		if !ok {
			s.Histograms[name] = HistogramSnap{
				Bounds: append([]uint64(nil), hs.Bounds...),
				Counts: append([]uint64(nil), hs.Counts...),
			}
			continue
		}
		if !boundsEqual(cur.Bounds, hs.Bounds) {
			continue
		}
		for i, c := range hs.Counts {
			cur.Counts[i] += c
		}
	}
}

// MergeAll merges snapshots in slice order into a fresh Snapshot,
// skipping nils. The canonical harness call:
//
//	obs.MergeAll(perCellSnaps) // perCellSnaps in submission order
func MergeAll(snaps []*Snapshot) *Snapshot {
	out := &Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]uint64{},
		Histograms: map[string]HistogramSnap{},
	}
	for _, s := range snaps {
		out.Merge(s)
	}
	return out
}

// WriteTable renders the snapshot as an aligned name/value text table in
// lexical name order (the -metrics output of m5sim). Histograms render
// one row per bucket as name{le="bound"}.
func (s *Snapshot) WriteTable(w io.Writer) error {
	if s == nil {
		return nil
	}
	type row struct {
		name string
		val  uint64
	}
	var rows []row
	for _, name := range sortedKeys(s.Counters) {
		rows = append(rows, row{name, s.Counters[name]})
	}
	for _, name := range sortedKeys(s.Gauges) {
		rows = append(rows, row{name, s.Gauges[name]})
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		for i, b := range h.Bounds {
			rows = append(rows, row{fmt.Sprintf("%s{le=\"%d\"}", name, b), h.Counts[i]})
		}
		rows = append(rows, row{fmt.Sprintf("%s{le=\"+Inf\"}", name), h.Counts[len(h.Counts)-1]})
	}
	width := 0
	for _, r := range rows {
		if len(r.name) > width {
			width = len(r.name)
		}
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%-*s  %d\n", width, r.name, r.val); err != nil {
			return err
		}
	}
	return nil
}

func boundsEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
