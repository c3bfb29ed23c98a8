package analysis_test

import (
	"go/token"
	"strings"
	"testing"

	"m5/internal/analysis"
)

// TestFactMissingChangesVerdict proves the hotpath fact carries
// information: analyzed without hotdep, whose exported fact names Fast
// as a hotpath function, hotgood's call to it becomes a cross-package
// finding.
func TestFactMissingChangesVerdict(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := analysis.LoadTestdata(fset, "testdata/src", "m5/hotgood")
	if err != nil {
		t.Fatal(err)
	}
	var good []*analysis.Package
	for _, p := range pkgs {
		if p.PkgPath == "m5/hotgood" {
			good = append(good, p)
		}
	}
	if len(good) != 1 {
		t.Fatalf("corpus package m5/hotgood missing from %d loaded packages", len(pkgs))
	}
	ds, err := analysis.Run(fset, good, []*analysis.Analyzer{analysis.Hotpath})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range ds {
		if strings.Contains(d.Message, "m5/hotdep.Fast") {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a cross-package finding about m5/hotdep.Fast without hotdep's fact, got %v", ds)
	}
}
