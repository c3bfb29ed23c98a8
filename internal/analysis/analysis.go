// Package analysis is the simulator's source-level invariant checker:
// a small, dependency-free clone of the golang.org/x/tools/go/analysis
// vocabulary (Analyzer / Pass / Diagnostic) plus a module loader and a
// driver, built only on the standard library's go/{ast,parser,types}
// and the toolchain's export data (via `go list -export`).
//
// The reproduction's headline results are only comparable because every
// harness is bit-identical across worker counts and tape on/off, and
// because the per-access hot paths never touch the allocator. PRs 1-4
// protect those invariants with equivalence and AllocsPerRun tests that
// only fire on exercised code paths; the analyzers in this package check
// them at the source level, so a refactor that introduces a map-order
// dependence or an allocating construct on an annotated hot path fails
// `m5lint` (and CI) before any benchmark has to notice.
//
// The suite (see DESIGN.md §8 for the full contract):
//
//   - determinism: inside the simulation packages, forbid wall-clock
//     reads, the package-global math/rand source, and map iteration
//     whose order can escape into results, float folds included.
//   - hotpath: functions annotated //m5:hotpath must not contain
//     allocating constructs and may only call other hotpath functions;
//     //m5:coldpath marks declared slow-path exits.
//   - lockdiscipline: fields annotated //m5:guardedby are only touched
//     with their mutex held.
//   - obsscope: obs metric names are string literals in the documented
//     scope.metric grammar.
//   - plumbing: every //m5:plumb seam handles every field of its config
//     struct.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in reports (lower-case, no spaces).
	Name string
	// Doc is a one-paragraph description of what it enforces.
	Doc string
	// Run checks one package and reports findings through the pass. It
	// may export package facts for cross-package checks.
	Run func(*Pass) error
}

// A Diagnostic is one finding, already resolved to a file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the finding in the stable report format.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// A Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	facts   map[factKey]any // shared by every pass of one Run
	report  func(Diagnostic)
	markers map[markerLine]markerInfo // source line -> marker ("coldpath", ...)
}

// factKey names one analyzer's fact about one package.
type factKey struct{ analyzer, pkg string }

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ExportFact stores this analyzer's fact for the pass's package.
// Packages are analyzed in dependency order, so the fact is visible
// when the package's importers run.
func (p *Pass) ExportFact(v any) {
	p.facts[factKey{p.Analyzer.Name, p.Pkg.Path()}] = v
}

// ImportFact returns this analyzer's fact for the named package, or nil
// when that package exported none.
func (p *Pass) ImportFact(pkgPath string) any {
	return p.facts[factKey{p.Analyzer.Name, pkgPath}]
}

// SortDiagnostics orders findings by file, line, column, analyzer, and
// message — the stable report order CI diffs rely on.
func SortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}
