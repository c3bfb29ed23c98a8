package experiments

import (
	"fmt"

	"m5/internal/obs"
	"m5/internal/sim"
	"m5/internal/workload"
)

// Harness is the uniform descriptor every experiment harness registers:
// a name (the -exp / sweep-query vocabulary), a one-line title, the
// benchmark subset it defaults to, and a Run that takes the shared
// Params shape and returns the generic Result every frontend — batch
// (cmd/m5bench), serving (cmd/m5serve), and the Go benchmarks
// (bench_test.go) — can render, serialize, or stream without knowing
// which figure it came from. The registry replaces the closed `runners`
// map + hand-maintained `harnessOrder` list cmd/m5bench used to carry:
// one registration site, enumerable by any frontend, guarded by the
// m5lint registry analyzer like the policy and workload vocabularies.
type Harness struct {
	// Name keys the harness ("fig9", "ext-phase", ...).
	Name string
	// Title is the one-line description -h and /harnesses document.
	Title string
	// DefaultBenchmarks is the benchmark subset the harness substitutes
	// when Params.Benchmarks is empty or the full catalog twelve; nil
	// means the harness runs whatever Params carries (defaulting to the
	// paper's twelve). Informational: Run applies it internally.
	DefaultBenchmarks []string
	// Run executes the harness. Every registered Run validates its
	// Params (Params.Validate) before touching the simulator.
	Run func(Params) (*Result, error)
}

// Result is the uniform harness output: named rendered tables (the rows
// the paper's figures plot), headline metrics, free-form note lines,
// and, when Params.CollectObs asked for it, the merged per-layer
// observability snapshot. Identical (harness, Params) runs produce
// byte-identical Results — the equivalence contract the batch and
// serving frontends are pinned to.
type Result struct {
	Tables  []*Table           `json:"tables,omitempty"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
	Notes   []string           `json:"notes,omitempty"`
	Obs     *obs.Snapshot      `json:"obs,omitempty"`
}

// newResult returns an empty Result ready for metric collection.
func newResult() *Result {
	return &Result{Metrics: map[string]float64{}}
}

// add appends a named table (the name keys CSV exports and JSON rows).
func (r *Result) add(name string, t *Table) {
	t.Name = name
	r.Tables = append(r.Tables, t)
}

// metric records one headline number.
func (r *Result) metric(name string, v float64) { r.Metrics[name] = v }

// notef appends a formatted note line (the "headline: ..." prints of
// cmd/m5bench).
func (r *Result) notef(format string, args ...interface{}) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

var (
	harnesses = map[string]Harness{}
	// harnessOrder preserves registration order — the paper's figure
	// order, which -exp=all and sweep enumeration follow.
	harnessOrder []string
)

// Register adds a harness to the registry. Like the policy and workload
// registries it panics on empty or duplicate names: registration is
// init-time wiring, not a runtime path, and the m5lint registry
// analyzer checks the discipline (init-time, string-literal names,
// collision-free) statically.
func Register(h Harness) {
	if h.Name == "" || h.Run == nil {
		panic("experiments: Register needs a name and a run function")
	}
	if _, dup := harnesses[h.Name]; dup {
		panic("experiments: duplicate registration of " + h.Name)
	}
	harnesses[h.Name] = h
	harnessOrder = append(harnessOrder, h.Name)
}

// HarnessNames returns every registered harness name in registration
// (paper figure) order — the stable order -exp=all runs and /harnesses
// documents.
func HarnessNames() []string {
	return append([]string(nil), harnessOrder...)
}

// Harnesses returns every descriptor in registration order.
func Harnesses() []Harness {
	out := make([]Harness, 0, len(harnessOrder))
	for _, name := range harnessOrder {
		out = append(out, harnesses[name])
	}
	return out
}

// LookupHarness returns the descriptor for a registered name.
func LookupHarness(name string) (Harness, bool) {
	h, ok := harnesses[name]
	return h, ok
}

// RunHarness executes the named harness. Unknown names error with the
// full vocabulary, so frontends keep their non-zero exits and 404s
// informative.
func RunHarness(name string, p Params) (*Result, error) {
	h, ok := harnesses[name]
	if !ok {
		return nil, fmt.Errorf("unknown harness %q (one of %v)", name, HarnessNames())
	}
	return h.Run(p)
}

// Validate rejects Params no harness can run: negative budgets and
// benchmark names outside the workload catalog. Until now only
// cmd/m5bench checked benchmark names, so library callers could pass
// garbage that surfaced as an opaque error deep inside a cell; every
// registered harness now validates up front (via prepare).
//
//m5:plumb Params ignore=Seed,Parallel,CollectObs,Tapes,Warm,Sample
func (p Params) Validate() error {
	switch {
	case p.Warmup < 0:
		return fmt.Errorf("experiments: negative Warmup %d", p.Warmup)
	case p.Accesses < 0:
		return fmt.Errorf("experiments: negative Accesses %d", p.Accesses)
	case p.Points < 0:
		return fmt.Errorf("experiments: negative Points %d", p.Points)
	case p.Scale < workload.ScaleTiny || p.Scale > workload.ScaleLarge:
		return fmt.Errorf("experiments: unknown scale %v", p.Scale)
	case p.SampleWindow < 0:
		return fmt.Errorf("experiments: negative SampleWindow %d", p.SampleWindow)
	case p.SampleStride < 0:
		return fmt.Errorf("experiments: negative SampleStride %d", p.SampleStride)
	case p.TargetCI < 0 || p.TargetCI >= 1:
		return fmt.Errorf("experiments: TargetCI %v must be in [0, 1)", p.TargetCI)
	}
	if len(p.Benchmarks) > 0 {
		known := map[string]bool{}
		for _, name := range workload.Registered() {
			known[name] = true
		}
		for _, name := range p.Benchmarks {
			if !known[name] {
				return fmt.Errorf("experiments: unknown benchmark %q (one of %v)",
					name, workload.Registered())
			}
		}
	}
	return nil
}

// prepare is the entry gate every harness runs its Params through:
// validate, then fill defaults.
func (p Params) prepare() (Params, error) {
	if err := p.Validate(); err != nil {
		return Params{}, err
	}
	return p.withDefaults(), nil
}

// WarmKey identifies one warm-checkpoint shape within a harness: the
// benchmark plus a harness-chosen kind tag naming the bare
// configuration that was warmed (e.g. "sec42-hpt"). Together with the
// Params fields that shape machine state (Scale, Seed, Warmup, and the
// sampling geometry) it keys a shared checkpoint store.
type WarmKey struct {
	Bench string
	Kind  string
}

// WarmSource serves warmed machine checkpoints from a shared store — the
// serving frontend's copy-on-write checkpoint tree. WarmCheckpoint
// returns a checkpoint positioned exactly where build()+Run(p.Warmup)
// would leave a fresh runner; implementations may satisfy it by cache
// hit, by forking a shorter-prefix ancestor and running the remaining
// warmup, or by building from scratch. Every path is byte-identical to
// the cold one — the sim.Checkpoint fork contract.
type WarmSource interface {
	WarmCheckpoint(p Params, key WarmKey, build func() (*sim.Runner, error)) (*sim.Checkpoint, error)
}

// warmCheckpoint builds (or fetches) the warm checkpoint for one cell:
// from p.Warm when a shared source is configured, else by warming a
// fresh runner — the cold path the warm one must match byte for byte.
func (p Params) warmCheckpoint(key WarmKey, build func() (*sim.Runner, error)) (*sim.Checkpoint, error) {
	if p.Warm != nil {
		return p.Warm.WarmCheckpoint(p, key, build)
	}
	r, err := build()
	if err != nil {
		return nil, err
	}
	r.Run(p.Warmup)
	cp, err := r.Checkpoint()
	r.Close()
	return cp, err
}
