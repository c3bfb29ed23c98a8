// Package policy is the name-keyed constructor registry behind the
// unified tiermem.Policy API: every migration solution the reproduction
// ships — the CPU-driven baselines (§2.1) and the M5 manager's policy zoo
// (§5.2) — registers a Spec here, and every harness (m5sim, m5bench, the
// figure/table experiments) builds daemons through New instead of keeping
// its own per-policy switch. A policy's capability requirements (does it
// need an HPT or HWT on the CXL controller?) live on the Spec, so callers
// can assemble the runner before constructing the policy.
package policy

import (
	"fmt"
	"sort"

	"m5/internal/baseline"
	"m5/internal/cxl"
	m5mgr "m5/internal/m5"
	"m5/internal/mem"
	"m5/internal/obs"
	"m5/internal/tiermem"
	"m5/internal/trace"
	"m5/internal/tracker"
)

// Env is everything a policy constructor may need from the assembled
// experiment. Zero-value fields are acceptable everywhere except Sys; a
// Spec whose requirements are unmet (e.g. PEBS without a miss sink, an M5
// mode without its tracker) returns an error from Make.
type Env struct {
	// Sys is the tiered-memory system the policy migrates over.
	Sys *tiermem.System
	// Ctrl is the CXL controller (required by the M5 modes, which query
	// trackers over MMIO).
	Ctrl *cxl.Controller
	// FootPages sizes the CPU-driven solutions' sampling rates, as the
	// kernel scales scan budgets with the address space.
	FootPages int
	// Migrate false selects the §4.1 profiling mode where supported:
	// identification runs but pages are only recorded, never moved.
	Migrate bool
	// HotListCap bounds the profiling-mode hot-page list; 0 = unbounded.
	HotListCap int
	// AttachMissSink registers an observer of the LLC-miss stream; PEBS
	// requires it (its hardware analog samples retired loads, not CXL
	// device traffic).
	AttachMissSink func(trace.Sink)
	// Metrics, when non-nil, receives the policy's decision counters; by
	// convention callers pass the experiment registry's "policy" scope.
	Metrics *obs.Registry
	// Elector overrides the M5 manager's elector tuning (zero-value uses
	// the Algorithm 1 defaults).
	Elector m5mgr.ElectorConfig
}

// Spec describes one registered policy.
type Spec struct {
	// Name is the CLI/experiment vocabulary entry ("anb", "m5-hpt", ...).
	Name string
	// NeedsHPT / NeedsHWT report which trackers the runner must enable on
	// the CXL controller before Make can succeed.
	NeedsHPT bool
	NeedsHWT bool
	// Make builds the policy over the environment.
	Make func(Env) (tiermem.Policy, error)
}

// Profiler is the §4.1 profiling-mode surface: a schedulable policy that
// records the PFNs it identified as hot, for scoring against PAC.
type Profiler interface {
	tiermem.Policy
	HotPFNs() []mem.PFN
}

var specs = map[string]Spec{}

// Register adds a Spec to the registry; duplicate or empty names panic
// (registration is init-time wiring, not a runtime path).
func Register(s Spec) {
	if s.Name == "" || s.Make == nil {
		panic("policy: Register needs a name and a constructor")
	}
	if _, dup := specs[s.Name]; dup {
		panic("policy: duplicate registration of " + s.Name)
	}
	specs[s.Name] = s
}

// Names returns the full vocabulary in deterministic order: "none" (the
// no-migration baseline) followed by every registered policy sorted by
// name.
func Names() []string {
	names := make([]string, 0, len(specs))
	for name := range specs {
		names = append(names, name)
	}
	sort.Strings(names)
	return append([]string{"none"}, names...)
}

// Lookup returns the Spec for a registered name.
func Lookup(name string) (Spec, bool) {
	s, ok := specs[name]
	return s, ok
}

// NeedsHPT reports whether the named policy requires an HPT on the
// controller (false for "none" and unknown names).
func NeedsHPT(name string) bool { return specs[name].NeedsHPT }

// NeedsHWT reports whether the named policy requires an HWT.
func NeedsHWT(name string) bool { return specs[name].NeedsHWT }

// DefaultHPT returns the deployed HPT configuration (CM-Sketch 32K, K=64).
func DefaultHPT() *tracker.Config {
	return &tracker.Config{Algorithm: tracker.CMSketch, Entries: 32 * 1024, K: 64}
}

// DefaultHWT returns the deployed HWT configuration (CM-Sketch 32K, K=128).
func DefaultHWT() *tracker.Config {
	return &tracker.Config{Algorithm: tracker.CMSketch, Entries: 32 * 1024, K: 128}
}

// New builds the named policy over the environment. "none" returns
// (nil, nil): no daemon. Unknown names error with the full vocabulary.
func New(name string, env Env) (tiermem.Policy, error) {
	if name == "none" {
		return nil, nil
	}
	s, ok := specs[name]
	if !ok {
		return nil, fmt.Errorf("unknown policy %q (one of %v)", name, Names())
	}
	return s.Make(env)
}

// managerMode maps the M5 manager policy names onto nominator modes.
var managerMode = map[string]m5mgr.NominatorMode{
	"m5-hpt":     m5mgr.HPTOnly,
	"m5-hwt":     m5mgr.HWTDriven,
	"m5-hpt+hwt": m5mgr.HPTDriven,
}

func makeManager(name string) func(Env) (tiermem.Policy, error) {
	return func(env Env) (tiermem.Policy, error) {
		cfg := m5mgr.ManagerConfig{
			Mode:    managerMode[name],
			Elector: env.Elector,
			Metrics: env.Metrics,
		}
		if !env.Migrate {
			cfg.Profile = true
			cfg.HotListCap = env.HotListCap
		}
		return m5mgr.NewManager(env.Sys, env.Ctrl, cfg), nil
	}
}

// requireMigrate gates policies with no profiling mode.
func requireMigrate(name string, make func(Env) (tiermem.Policy, error)) func(Env) (tiermem.Policy, error) {
	return func(env Env) (tiermem.Policy, error) {
		if !env.Migrate {
			return nil, fmt.Errorf("policy %q has no profiling mode", name)
		}
		return make(env)
	}
}

func init() {
	Register(Spec{Name: "anb", Make: func(env Env) (tiermem.Policy, error) {
		return baseline.NewANB(env.Sys, baseline.ANBConfig{
			SamplePages: max(env.FootPages/128, 8),
			Migrate:     env.Migrate,
			HotListCap:  env.HotListCap,
			Metrics:     env.Metrics,
		}), nil
	}})
	Register(Spec{Name: "damon", Make: func(env Env) (tiermem.Policy, error) {
		return baseline.NewDAMON(env.Sys, baseline.DAMONConfig{
			MigrateBatch: migrateQuota(env.FootPages),
			Migrate:      env.Migrate,
			HotListCap:   env.HotListCap,
			Metrics:      env.Metrics,
		}), nil
	}})
	Register(Spec{Name: "pebs", Make: func(env Env) (tiermem.Policy, error) {
		p, err := NewPEBS(env, pebsRate)
		if err != nil {
			return nil, err
		}
		return p, nil
	}})
	Register(Spec{Name: "m5-hpt", NeedsHPT: true, Make: makeManager("m5-hpt")})
	Register(Spec{Name: "m5-hwt", NeedsHWT: true, Make: makeManager("m5-hwt")})
	Register(Spec{Name: "m5-hpt+hwt", NeedsHPT: true, NeedsHWT: true, Make: makeManager("m5-hpt+hwt")})
	Register(Spec{Name: "m5-static", NeedsHPT: true,
		Make: requireMigrate("m5-static", func(env Env) (tiermem.Policy, error) {
			return m5mgr.NewStaticPolicy(env.Sys, m5mgr.NewNominator(env.Ctrl, m5mgr.HPTOnly)), nil
		})})
	Register(Spec{Name: "m5-threshold", NeedsHPT: true,
		Make: requireMigrate("m5-threshold", func(env Env) (tiermem.Policy, error) {
			return m5mgr.NewThresholdPolicy(env.Sys, m5mgr.NewNominator(env.Ctrl, m5mgr.HPTOnly)), nil
		})})
	Register(Spec{Name: "m5-density", NeedsHPT: true, NeedsHWT: true,
		Make: requireMigrate("m5-density", func(env Env) (tiermem.Policy, error) {
			return m5mgr.NewDensityFilterPolicy(env.Sys, m5mgr.NewNominator(env.Ctrl, m5mgr.HPTDriven)), nil
		})})
}

// pebsRate is the registry "pebs" sampler's rate: one sample per 100 LLC
// misses, the rate [75] reports >15% overhead for.
const pebsRate = 100

// migrateQuota is the pages a CPU-driven solution elects for promotion
// per period on a footprint of footPages: DAMON's DAMOS batch and the
// PEBS sampler's top-K.
func migrateQuota(footPages int) int { return max(footPages/64, 16) }

// NewPEBS builds the PEBS sampler over env, taking one of every rate
// LLC misses and electing migrateQuota pages per period, and attaches it
// to env's miss stream. It is the one constructor of the solution: the
// registry's "pebs" is NewPEBS at pebsRate.
func NewPEBS(env Env, rate uint64) (*baseline.PEBS, error) {
	if env.AttachMissSink == nil {
		return nil, fmt.Errorf("policy \"pebs\" needs an LLC-miss stream (Env.AttachMissSink)")
	}
	p := baseline.NewPEBS(env.Sys, baseline.PEBSConfig{
		SampleRate: rate,
		HotK:       migrateQuota(env.FootPages),
		Migrate:    env.Migrate,
		HotListCap: env.HotListCap,
		Metrics:    env.Metrics,
	})
	env.AttachMissSink(p)
	return p, nil
}
