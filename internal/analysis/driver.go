package analysis

import "go/token"

// Run executes the analyzers over the packages (which must be in
// dependency order, as LoadModule returns them), then runs each
// analyzer's Finish hook, and returns the findings in the stable
// file:line:column order.
func Run(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	facts := NewFactSet()
	return RunWithFacts(fset, pkgs, analyzers, facts)
}

// RunWithFacts is Run with a caller-supplied fact store. The vet-tool
// driver uses it to pre-seed facts decoded from dependency .vetx files.
func RunWithFacts(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer, facts *FactSet) ([]Diagnostic, error) {
	var ds []Diagnostic
	report := func(d Diagnostic) { ds = append(ds, d) }
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				Facts:     facts,
				report:    report,
			}
			pass.markers = collectMarkers(fset, pkg.Files)
			if err := a.Run(pass); err != nil {
				return nil, err
			}
		}
	}
	for _, a := range analyzers {
		if a.Finish != nil {
			a.Finish(facts, report)
		}
	}
	SortDiagnostics(ds)
	return ds, nil
}

// All returns the full m5lint suite: determinism, hotpath, obs naming
// and registration discipline, plus config plumbing, lock discipline and
// float confinement.
func All() []*Analyzer {
	return []*Analyzer{
		Determinism, Floatconfine, Hotpath,
		Lockdiscipline, ObsScope, Plumbing, Registry,
	}
}
