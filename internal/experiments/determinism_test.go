package experiments

import (
	"encoding/json"
	"fmt"
	"testing"

	"m5/internal/obs"
	"m5/internal/policy"
	"m5/internal/sim"
	"m5/internal/workload"
)

// The parallel engine's core guarantee: every harness submits pure cells
// with per-cell seeds and reassembles rows by index, so the worker count
// must never show up in the output. Fig8 exercises the widest cell mix
// (ANB, DAMON, and both M5 tracker configurations per benchmark).
func TestFig8ParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the fig8 harness twice")
	}
	p := tinyParams("roms", "redis")

	p.Parallel = 1
	serial, err := Fig8(p)
	if err != nil {
		t.Fatal(err)
	}
	p.Parallel = 8
	par, err := Fig8(p)
	if err != nil {
		t.Fatal(err)
	}

	// Byte-identical, not approximately equal: render every row and
	// compare the strings so any float drift fails loudly.
	a, b := fmt.Sprintf("%#v", serial), fmt.Sprintf("%#v", par)
	if a != b {
		t.Errorf("parallel rows differ from serial:\nserial:   %s\nparallel: %s", a, b)
	}
}

// The checkpointed-warmup guarantee: Sec42's warm-once-and-fork cells must
// produce exactly what four independent runners would, when each of those
// runners is warmed daemon-free on the same superset machine (HPT
// attached) and given its daemon at the warmup boundary. This is the
// harness-level pin of sim.Checkpoint/Fork determinism.
func TestSec42ForkMatchesScratch(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the sec42 cells twice")
	}
	p := tinyParams("roms").withDefaults()

	forked, err := sec42Bench(p, "roms")
	if err != nil {
		t.Fatal(err)
	}

	for si, c := range sec42Arms {
		wl, err := workload.New("roms", p.Scale, p.Seed)
		if err != nil {
			t.Fatal(err)
		}
		r, err := sim.NewRunner(sim.Config{Workload: wl, HPT: policy.DefaultHPT()})
		if err != nil {
			wl.Close()
			t.Fatal(err)
		}
		r.Run(p.Warmup)
		if _, err := c.install(r, nil, wl.Footprint()); err != nil {
			t.Fatal(err)
		}
		scratch := r.Run(p.Accesses)
		r.Close()
		a, b := fmt.Sprintf("%#v", forked[si]), fmt.Sprintf("%#v", scratch)
		if a != b {
			t.Errorf("solution %s: forked cell differs from from-scratch:\nforked:  %s\nscratch: %s", c, a, b)
		}
	}
}

// The same guarantee for the observability plane: per-cell registries
// merged in submission order must make the aggregated snapshot —
// including its JSON encoding, which is what m5bench -json ships —
// independent of the worker count.
func TestFig9ObsParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the fig9 harness twice")
	}
	p := tinyParams("roms", "redis")
	p.CollectObs = true

	merged := func(parallel int) []byte {
		t.Helper()
		p.Parallel = parallel
		rows, err := Fig9(p)
		if err != nil {
			t.Fatal(err)
		}
		var snaps []*obs.Snapshot
		cfgs := append([]Fig9Config{Fig9None}, Fig9Configs()...)
		for _, r := range rows {
			for _, c := range cfgs {
				if s := r.Raw[c].Obs; s != nil {
					snaps = append(snaps, s)
				}
			}
		}
		if len(snaps) == 0 {
			t.Fatal("CollectObs produced no snapshots")
		}
		data, err := json.Marshal(obs.MergeAll(snaps))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	serial := merged(1)
	par := merged(8)
	if string(serial) != string(par) {
		t.Errorf("merged obs snapshot depends on worker count:\nserial:   %s\nparallel: %s", serial, par)
	}
}
