// Package tracker implements the M5 top-K hot-address trackers (§5.1): the
// Hot-Page Tracker (HPT) and Hot-Word Tracker (HWT). A tracker pairs a
// frequency-estimation unit (CM-Sketch, Space-Saving, or Sticky Sampling)
// with a K-entry sorted CAM and observes the DRAM address stream snooped
// between the CXL IP and the memory controller.
//
// HPT and HWT share one architecture and differ only in key granularity:
// HPT keys on 4KB page frame numbers, HWT on 64B word numbers.
package tracker

import (
	"fmt"

	"m5/internal/cam"
	"m5/internal/mem"
	"m5/internal/sketch"
	"m5/internal/trace"
)

// Granularity selects the address granularity a tracker counts at.
type Granularity int

const (
	// PageGranularity keys on 4KB PFNs (HPT).
	PageGranularity Granularity = iota
	// WordGranularity keys on 64B word numbers (HWT).
	WordGranularity
)

// String names the granularity.
func (g Granularity) String() string {
	switch g {
	case PageGranularity:
		return "page"
	case WordGranularity:
		return "word"
	default:
		return fmt.Sprintf("Granularity(%d)", int(g))
	}
}

// Key maps a physical address to the tracker key for this granularity.
func (g Granularity) Key(a mem.PhysAddr) uint64 {
	if g == WordGranularity {
		return uint64(a.Word())
	}
	return uint64(a.Page())
}

// Algorithm selects the frequency-estimation unit.
type Algorithm int

const (
	// CMSketch uses an H×W CountMin-Sketch SRAM array plus a K-entry CAM
	// (the design M5 adopts).
	CMSketch Algorithm = iota
	// SpaceSaving uses an N-entry CAM that both counts and ranks (the
	// Mithril-style alternative).
	SpaceSaving
	// StickySampling uses probabilistic admission (surveyed in §5.1).
	StickySampling
	// ConservativeCMSketch is CM-Sketch with conservative update, an
	// ablation on top of the paper's design.
	ConservativeCMSketch
)

// String names the algorithm.
func (a Algorithm) String() string {
	switch a {
	case CMSketch:
		return "cm-sketch"
	case SpaceSaving:
		return "space-saving"
	case StickySampling:
		return "sticky-sampling"
	case ConservativeCMSketch:
		return "cm-sketch-cu"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Config describes a top-K tracker instance.
type Config struct {
	// Granularity is page (HPT) or word (HWT).
	Granularity Granularity
	// Algorithm selects the estimation unit.
	Algorithm Algorithm
	// K is the number of sorted-CAM entries (top-K size). The paper's
	// design-space exploration fixes K=5.
	K int
	// Entries is N, the number of access counts (H×W for CM-Sketch, the
	// counter-table size for Space-Saving / Sticky Sampling).
	Entries int
	// DecayOnQuery ages counts by halving instead of clearing them when a
	// query is served — epochs blend exponentially rather than starting
	// cold (the DESIGN §4 item-6 ablation; the paper's hardware resets).
	// Only meaningful for algorithms whose counter implements
	// sketch.Decayer (CM-Sketch variants and the exact oracle).
	DecayOnQuery bool
}

// Validate reports a configuration New cannot build faithfully: a
// negative K (New panics building the CAM; a Space-Saving tracker would
// report nothing) or a negative Entries (New panics, or silently shrinks
// a CM-Sketch to one column). Zero selects the default for both. Configs
// from outside the process (CLI flags) go through it before New.
func (c Config) Validate() error {
	switch {
	case c.K < 0:
		return fmt.Errorf("tracker: K must not be negative, got %d", c.K)
	case c.Entries < 0:
		return fmt.Errorf("tracker: Entries must not be negative, got %d", c.Entries)
	}
	return nil
}

// CountsExactly reports whether t, a tracker built from c, counts an
// epoch of keys distinct keys exactly if the epoch starts now, so that
// its query at the epoch's end reports the min(K, keys) keys with the
// epoch's largest exact counts and a scorer may skip the replay. A nil t
// stands for a tracker New(c) has yet to build. Only a fresh Space-Saving
// tracker qualifies: nil, or one that has observed nothing since its last
// query or Reset, never a DecayOnQuery one (whose query may carry counts
// into the next epoch), and only when keys <= N. DESIGN.md §11 (Exact
// epochs) has the proof.
func (c Config) CountsExactly(t *Tracker, keys int) bool {
	c = c.withDefaults()
	return c.Algorithm == SpaceSaving && !c.DecayOnQuery && (t == nil || t.observed == 0) && keys <= c.Entries
}

func (c Config) withDefaults() Config {
	if c.K == 0 {
		c.K = 5
	}
	if c.Entries == 0 {
		c.Entries = 32 * 1024
	}
	return c
}

// stickySeed seeds Sticky Sampling's admission RNG.
const stickySeed = 0

// Tracker is one HPT or HWT instance. It implements trace.Sink.
type Tracker struct {
	cfg     Config
	counter sketch.Counter
	topk    *cam.Sorted // nil in Space-Saving mode
	ss      *sketch.SpaceSaving
	// perOccurrence makes ObserveKeyN feed the counter and the CAM one
	// occurrence at a time (Sticky Sampling; see ObserveKeyN).
	perOccurrence bool
	observed      uint64 // accesses observed in the current epoch
	queries       uint64 // queries served over the tracker lifetime
}

// New builds a tracker from the config, applying defaults (K=5, N=32K)
// for zero fields; a CM-Sketch has sketch.CountMinRows rows.
func New(cfg Config) *Tracker {
	cfg = cfg.withDefaults()
	t := &Tracker{cfg: cfg}
	switch cfg.Algorithm {
	case CMSketch, ConservativeCMSketch:
		cols := max(cfg.Entries/sketch.CountMinRows, 1)
		var opts []sketch.CountMinOption
		if cfg.Algorithm == ConservativeCMSketch {
			opts = append(opts, sketch.WithConservativeUpdate())
		}
		t.counter = sketch.NewCountMin(cols, opts...)
		t.topk = cam.NewSorted(cfg.K)
	case SpaceSaving:
		ss := sketch.NewSpaceSaving(cfg.Entries)
		t.counter = ss
		t.ss = ss
	case StickySampling:
		t.counter = sketch.NewStickySampling(cfg.Entries, stickySeed)
		t.topk = cam.NewSorted(cfg.K)
		t.perOccurrence = true
	default:
		panic(fmt.Sprintf("tracker: unknown algorithm %v", cfg.Algorithm))
	}
	return t
}

// NewHPT returns a Hot-Page Tracker with the given algorithm and N,
// using the paper defaults for the rest.
func NewHPT(alg Algorithm, entries int) *Tracker {
	return New(Config{Granularity: PageGranularity, Algorithm: alg, Entries: entries})
}

// NewHWT returns a Hot-Word Tracker with the given algorithm and N.
func NewHWT(alg Algorithm, entries int) *Tracker {
	return New(Config{Granularity: WordGranularity, Algorithm: alg, Entries: entries})
}

// Config returns the (defaulted) configuration.
func (t *Tracker) Config() Config { return t.cfg }

// ObserveN implements trace.Sink: the access, n times, flows through the
// estimation unit and then the sorted CAM, as in Figure 5.
func (t *Tracker) ObserveN(a trace.Access, n uint64) {
	t.ObserveKeyN(t.cfg.Granularity.Key(a.Addr), n)
}

// ObserveKeyN records n occurrences of a pre-mapped key. CM-Sketch and
// Space-Saving absorb the weight in one AddN, and the CAM takes the
// estimate in one Update, which makes Figure 5's admission decision
// itself. One Update stands for n because the estimate on one key only
// grows across the n occurrences, so the final admission decision and
// count match the sequential outcome. Sticky Sampling's estimate can
// fall mid-run (a rescale may prune the key), so its tracker steps one
// occurrence at a time and offers the CAM each estimate.
//
//m5:hotpath
func (t *Tracker) ObserveKeyN(key uint64, n uint64) {
	if n == 0 {
		return
	}
	if t.perOccurrence && n > 1 {
		for ; n > 0; n-- {
			t.ObserveKeyN(key, 1)
		}
		return
	}
	t.observed += n
	est := t.counter.AddN(key, n)
	if t.topk == nil {
		return // Space-Saving ranks inside its own table.
	}
	t.topk.Update(key, est)
}

// Observed returns the number of accesses seen in the current epoch.
func (t *Tracker) Observed() uint64 { return t.observed }

// Queries returns the number of Query calls served so far.
func (t *Tracker) Queries() uint64 { return t.queries }

// Peek returns the current top-K entries without ending the epoch.
func (t *Tracker) Peek() []cam.Entry {
	if t.topk != nil {
		return t.topk.TopK()
	}
	kc := t.ss.Top(t.cfg.K)
	out := make([]cam.Entry, len(kc))
	for i, e := range kc {
		out[i] = cam.Entry{Addr: e.Key, Count: e.Count}
	}
	return out
}

// Query reports the top-K hot addresses and starts a fresh epoch: by
// default both the estimation unit and the CAM reset (the hardware
// behaviour after a query is served, §5.1); with DecayOnQuery they halve
// instead, blending epochs exponentially.
func (t *Tracker) Query() []cam.Entry {
	out := t.Peek()
	if t.cfg.DecayOnQuery {
		if d, ok := t.counter.(sketch.Decayer); ok {
			d.Decay()
			if t.topk != nil {
				t.topk.Decay()
			}
			t.observed = 0
			t.queries++
			return out
		}
	}
	t.Reset()
	t.queries++
	return out
}

// Reset clears all counting state without reporting.
func (t *Tracker) Reset() {
	t.counter.Reset()
	if t.topk != nil {
		t.topk.Reset()
	}
	t.observed = 0
}

// Clone returns an independent copy of the tracker: its counter, its CAM
// and its epoch and query counts.
func (t *Tracker) Clone() *Tracker {
	c := *t
	c.counter = t.counter.Clone()
	if t.topk != nil {
		c.topk = t.topk.Clone()
	}
	if t.ss != nil {
		c.ss = c.counter.(*sketch.SpaceSaving)
	}
	return &c
}
