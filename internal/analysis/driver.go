package analysis

import "go/token"

// Run executes the analyzers over the packages (which must be in
// dependency order, as LoadModule returns them) and returns the
// findings in the stable file:line:column order.
func Run(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var ds []Diagnostic
	report := func(d Diagnostic) { ds = append(ds, d) }
	facts := map[factKey]any{}
	for _, pkg := range pkgs {
		markers := collectMarkers(fset, pkg.Files)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				facts:     facts,
				report:    report,
				markers:   markers,
			}
			if err := a.Run(pass); err != nil {
				return nil, err
			}
		}
	}
	SortDiagnostics(ds)
	return ds, nil
}

// All returns the full m5lint suite.
func All() []*Analyzer {
	return []*Analyzer{Determinism, Hotpath, Lockdiscipline, ObsScope, Plumbing}
}
