package policy_test

import (
	"sort"
	"strings"
	"testing"

	"m5/internal/baseline"
	"m5/internal/policy"
	"m5/internal/sim"
	"m5/internal/trace"
	"m5/internal/workload"
)

func TestNamesDeterministic(t *testing.T) {
	names := policy.Names()
	if len(names) == 0 || names[0] != "none" {
		t.Fatalf("Names() = %v, want \"none\" first", names)
	}
	rest := names[1:]
	if !sort.StringsAreSorted(rest) {
		t.Errorf("registered names not sorted: %v", rest)
	}
	for _, want := range []string{"anb", "damon", "pebs", "m5-hpt", "m5-hwt", "m5-hpt+hwt", "m5-static", "m5-threshold", "m5-density"} {
		if _, ok := policy.Lookup(want); !ok {
			t.Errorf("Lookup(%q) missing", want)
		}
	}
	again := policy.Names()
	if strings.Join(names, ",") != strings.Join(again, ",") {
		t.Errorf("Names() not stable: %v vs %v", names, again)
	}
}

func TestUnknownName(t *testing.T) {
	if _, err := policy.New("bogus", policy.Env{}); err == nil {
		t.Fatal("unknown policy should error")
	} else if !strings.Contains(err.Error(), "none") {
		t.Errorf("error should list the vocabulary, got: %v", err)
	}
	if _, ok := policy.Lookup("bogus"); ok {
		t.Error("Lookup(bogus) should miss")
	}
}

func TestNoneIsNilDaemon(t *testing.T) {
	d, err := policy.New("none", policy.Env{})
	if d != nil || err != nil {
		t.Fatalf("New(none) = %v, %v; want nil, nil", d, err)
	}
}

// newTestRunner builds a tiny runner with both trackers enabled so every
// registered policy can construct over it.
func newTestRunner(t *testing.T) *sim.Runner {
	t.Helper()
	wl := workload.MustNew("roms", workload.ScaleTiny, 1)
	r, err := sim.NewRunner(sim.Config{
		Workload: wl,
		HPT:      policy.DefaultHPT(),
		HWT:      policy.DefaultHWT(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

// TestConstructAndTickAll builds every registered policy in migration
// mode over a real runner and runs a short span: the unified-API
// contract is that construction plus Stats() works for the whole
// vocabulary, with no per-policy special cases.
func TestConstructAndTickAll(t *testing.T) {
	for _, name := range policy.Names() {
		if name == "none" {
			continue
		}
		t.Run(name, func(t *testing.T) {
			r := newTestRunner(t)
			d, err := policy.New(name, policy.Env{
				Sys:            r.Sys,
				Ctrl:           r.Ctrl,
				FootPages:      r.Sys.PageTable().Len(),
				Migrate:        true,
				AttachMissSink: r.AttachMissSink,
			})
			if err != nil {
				t.Fatalf("New(%q): %v", name, err)
			}
			if d == nil {
				t.Fatalf("New(%q) returned nil daemon", name)
			}
			if d.PeriodNs() == 0 {
				t.Errorf("%s: PeriodNs() = 0", name)
			}
			r.SetDaemon(d)
			if res := r.Run(150_000); res.Accesses == 0 {
				t.Errorf("%s: no progress", name)
			}
			if st := d.Stats(); st.Ticks == 0 {
				t.Errorf("%s: Stats().Ticks = 0 after a run", name)
			}
		})
	}
}

// TestInstallPolicyAll assembles each runner the way m5sim does, with
// only the trackers the policy's NeedsHPT/NeedsHWT ask for, installs the
// policy, and runs it: the capability flags must suffice for every name
// in the vocabulary, "none" included.
func TestInstallPolicyAll(t *testing.T) {
	for _, name := range policy.Names() {
		wl := workload.MustNew("roms", workload.ScaleTiny, 1)
		cfg := sim.Config{Workload: wl}
		if policy.NeedsHPT(name) {
			cfg.HPT = policy.DefaultHPT()
		}
		if policy.NeedsHWT(name) {
			cfg.HWT = policy.DefaultHWT()
		}
		r, err := sim.NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		d, err := policy.New(name, policy.Env{
			Sys:            r.Sys,
			Ctrl:           r.Ctrl,
			FootPages:      100,
			Migrate:        true,
			AttachMissSink: r.AttachMissSink,
		})
		if err != nil {
			t.Errorf("New(%q): %v", name, err)
		}
		if d != nil {
			r.SetDaemon(d)
		}
		if res := r.Run(200_000); res.Accesses == 0 {
			t.Errorf("%s: no progress", name)
		}
		r.Close()
	}
}

// TestPEBSOneQuota pins the one PEBS model: the registry's "pebs" is
// NewPEBS at 1/100, ext-pebs's coarse arm differs only in its rate, and
// both elect max(footPages/64, 16) pages per period, the DAMOS batch.
func TestPEBSOneQuota(t *testing.T) {
	r := newTestRunner(t)
	for _, foot := range []int{100, 64 * 40} {
		env := policy.Env{Sys: r.Sys, FootPages: foot, Migrate: true, AttachMissSink: func(trace.Sink) {}}
		d, err := policy.New("pebs", env)
		if err != nil {
			t.Fatal(err)
		}
		want := baseline.PEBSConfig{SampleRate: 100, HotK: max(foot/64, 16), Migrate: true}
		if got := d.(*baseline.PEBS).Config(); got != want {
			t.Errorf("footPages %d: registry pebs config %+v, want %+v", foot, got, want)
		}
		coarse, err := policy.NewPEBS(env, 1000)
		if err != nil {
			t.Fatal(err)
		}
		want.SampleRate = 1000
		if got := coarse.Config(); got != want {
			t.Errorf("footPages %d: 1/1000 pebs config %+v, want %+v", foot, got, want)
		}
	}
}

func TestPEBSRequiresMissSink(t *testing.T) {
	r := newTestRunner(t)
	_, err := policy.New("pebs", policy.Env{Sys: r.Sys, Ctrl: r.Ctrl, Migrate: true})
	if err == nil || !strings.Contains(err.Error(), "AttachMissSink") {
		t.Fatalf("pebs without a sink: err = %v", err)
	}
}

// TestProfilingMode checks the §4.1 split: the CPU-driven baselines and
// the M5 manager modes expose a profiling mode (and a hot-page list),
// while the policy-zoo entries refuse Migrate=false.
func TestProfilingMode(t *testing.T) {
	profilers := []string{"anb", "damon", "pebs", "m5-hpt", "m5-hwt", "m5-hpt+hwt"}
	for _, name := range profilers {
		r := newTestRunner(t)
		d, err := policy.New(name, policy.Env{
			Sys:            r.Sys,
			Ctrl:           r.Ctrl,
			FootPages:      r.Sys.PageTable().Len(),
			Migrate:        false,
			HotListCap:     8,
			AttachMissSink: r.AttachMissSink,
		})
		if err != nil {
			t.Fatalf("New(%q, profile): %v", name, err)
		}
		if _, ok := d.(policy.Profiler); !ok {
			t.Errorf("%s: profiling-mode daemon records no hot-page list", name)
		}
	}
	for _, name := range []string{"m5-static", "m5-threshold", "m5-density"} {
		r := newTestRunner(t)
		_, err := policy.New(name, policy.Env{Sys: r.Sys, Ctrl: r.Ctrl, Migrate: false})
		if err == nil || !strings.Contains(err.Error(), "profiling") {
			t.Errorf("New(%q, profile): err = %v, want profiling-mode gate", name, err)
		}
	}
}

func TestCapabilityFlags(t *testing.T) {
	cases := map[string][2]bool{ // name -> {NeedsHPT, NeedsHWT}
		"none": {false, false}, "anb": {false, false}, "damon": {false, false},
		"pebs": {false, false}, "m5-hpt": {true, false}, "m5-hwt": {false, true},
		"m5-hpt+hwt": {true, true}, "m5-static": {true, false},
		"m5-threshold": {true, false}, "m5-density": {true, true},
	}
	for name, want := range cases {
		if got := [2]bool{policy.NeedsHPT(name), policy.NeedsHWT(name)}; got != want {
			t.Errorf("%s: (NeedsHPT, NeedsHWT) = %v, want %v", name, got, want)
		}
	}
	if policy.DefaultHPT().K != 64 || policy.DefaultHWT().K != 128 {
		t.Error("deployed tracker defaults changed")
	}
}
