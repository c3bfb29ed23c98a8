package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"m5/internal/experiments"
)

// perturbedRefDir copies the committed tracker-sweep reference into a
// temporary directory with one Figure 7 table cell changed.
func perturbedRefDir(t *testing.T) string {
	t.Helper()
	raw, err := os.ReadFile(refPath("ref", "tracker-sweep"))
	if err != nil {
		t.Fatal(err)
	}
	var ref reference
	if err := json.Unmarshal(raw, &ref); err != nil {
		t.Fatal(err)
	}
	var res experiments.Result
	if err := json.Unmarshal(ref.Outputs["fig7"], &res); err != nil {
		t.Fatal(err)
	}
	res.Tables[0].Rows[0][3] += "1" // one more digit on the first HPT ratio
	if ref.Outputs["fig7"], err = json.Marshal(res); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	b, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, filepath.Base(refPath("ref", "tracker-sweep"))), b, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestPerturbedReferenceCountsAsFailure(t *testing.T) {
	good, err := loadReference("ref", "tracker-sweep")
	if err != nil {
		t.Fatal(err)
	}
	// The committed output itself stands in for a run that reproduced it.
	out := good["fig7"]

	chk := newChecker(good)
	if !chk.record("fig7", out, nil) {
		t.Fatal("the committed output does not match its own reference")
	}

	bad, err := loadReference(perturbedRefDir(t), "tracker-sweep")
	if err != nil {
		t.Fatal(err)
	}
	chk = newChecker(bad)
	if chk.record("fig7", out, nil) {
		t.Fatal("an output differing from a perturbed reference passed")
	}
	chk.record("fig9", out, nil) // a key the reference lacks
	if attempted, failed, _ := chk.counts(); attempted != 2 || failed != 2 {
		t.Fatalf("attempted=%d failed=%d, want 2 and 2", attempted, failed)
	}
}

func TestRepeatsAndErrorsCountAsFailures(t *testing.T) {
	chk := newChecker(nil) // away from the default seed
	chk.record("k", []byte(`{"a":1}`), nil)
	chk.record("k", []byte(`{"a":1}`), nil)
	chk.record("k", []byte(`{"a":2}`), nil)
	chk.record("k", nil, errors.New("status 500"))
	chk.fail("plan check")
	if attempted, failed, problems := chk.counts(); attempted != 5 || failed != 3 || len(problems) != 3 {
		t.Fatalf("attempted=%d failed=%d problems=%q, want 5, 3 and 3", attempted, failed, problems)
	}
}

func TestSampledErrPctOverCommittedGrids(t *testing.T) {
	exact, err := loadReference("ref", "fullsys")
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := loadReference("ref", "fullsys-sampled")
	if err != nil {
		t.Fatal(err)
	}
	cells, err := fig9Cells(exact["fig9"])
	if err != nil || len(cells) != 25 {
		t.Fatalf("fig9 cells = %d (%v), want 25", len(cells), err)
	}
	if e, err := sampledErrPct(exact["fig9"], exact["fig9"]); err != nil || e != 0 {
		t.Fatalf("exact against itself = %v (%v), want 0", e, err)
	}
	if e, err := sampledErrPct(sampled["fig9-sampled"], exact["fig9"]); err != nil || e <= 0 {
		t.Fatalf("sampled against exact = %v (%v), want > 0", e, err)
	}
}
