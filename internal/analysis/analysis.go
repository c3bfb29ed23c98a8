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
//     whose order can escape into results.
//   - hotpath: functions annotated //m5:hotpath must not contain
//     allocating constructs and may only call other hotpath functions;
//     //m5:coldpath marks declared slow-path exits.
//   - obsscope: obs metric names are string literals in the documented
//     scope.metric grammar, and the obs plane keeps its nil-receiver
//     discipline.
//   - registry: policy/workload registrations are init-time, string-
//     literal, and collision-free across the whole build.
package analysis

import (
	"encoding/json"
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
	// Finish, when non-nil, runs once after every package's Run with
	// the accumulated fact set; cross-package findings (e.g. registry
	// name collisions) are reported here.
	Finish func(facts *FactSet, report func(Diagnostic))
}

// A Diagnostic is one finding, already resolved to a file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
	// Fix, when non-nil, is a mechanical edit that resolves the finding
	// (applied by `m5lint -fix`).
	Fix *SuggestedFix `json:",omitempty"`
}

// A SuggestedFix is a set of textual edits that mechanically resolves a
// finding: an inserted nil-guard, a sort after a map-range append, or an
// annotation stub awaiting a human justification.
type SuggestedFix struct {
	Message string
	Edits   []TextEdit
}

// A TextEdit replaces the byte range [Start, End) of Filename with
// NewText. Start == End is a pure insertion.
type TextEdit struct {
	Filename   string
	Start, End int
	NewText    string
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
	// Facts is the shared cross-package fact store. Packages are
	// analyzed in dependency order, so facts exported by a dependency
	// are visible when its importers run.
	Facts *FactSet

	report  func(Diagnostic)
	markers map[markerLine]markerInfo // source line -> marker ("coldpath", ...)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ReportFix records a finding at pos carrying a mechanical fix.
func (p *Pass) ReportFix(pos token.Pos, fix *SuggestedFix, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
		Fix:      fix,
	})
}

// ExportFact stores this analyzer's fact for the pass's package.
func (p *Pass) ExportFact(v any) {
	p.Facts.set(p.Analyzer.Name, p.Pkg.Path(), v)
}

// ImportFact loads the named package's fact for this analyzer into v,
// reporting whether one was present.
func (p *Pass) ImportFact(pkgPath string, v any) bool {
	return p.Facts.get(p.Analyzer.Name, pkgPath, v)
}

// FactSet holds per-analyzer, per-package facts. Facts are stored as
// JSON so the vet-tool driver can round-trip them through .vetx files.
type FactSet struct {
	m map[factKey]json.RawMessage
}

type factKey struct{ analyzer, pkg string }

// NewFactSet returns an empty fact store.
func NewFactSet() *FactSet { return &FactSet{m: map[factKey]json.RawMessage{}} }

func (f *FactSet) set(analyzer, pkg string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("analysis: unencodable fact for %s/%s: %v", analyzer, pkg, err))
	}
	f.m[factKey{analyzer, pkg}] = b
}

func (f *FactSet) get(analyzer, pkg string, v any) bool {
	b, ok := f.m[factKey{analyzer, pkg}]
	if !ok {
		return false
	}
	return json.Unmarshal(b, v) == nil
}

// Packages returns the packages holding a fact for the analyzer, sorted.
func (f *FactSet) Packages(analyzer string) []string {
	var out []string
	for k := range f.m {
		if k.analyzer == analyzer {
			out = append(out, k.pkg)
		}
	}
	sort.Strings(out)
	return out
}

// Encode serializes every fact one package exported, for the vet-tool
// driver's .vetx output. The result is deterministic.
func (f *FactSet) Encode(pkg string) []byte {
	byAnalyzer := map[string]json.RawMessage{}
	for k, v := range f.m {
		if k.pkg == pkg {
			byAnalyzer[k.analyzer] = v
		}
	}
	b, err := json.Marshal(byAnalyzer)
	if err != nil {
		panic(err)
	}
	return b
}

// Decode merges a serialized fact blob for pkg into the set.
func (f *FactSet) Decode(pkg string, data []byte) error {
	if len(data) == 0 {
		return nil
	}
	byAnalyzer := map[string]json.RawMessage{}
	if err := json.Unmarshal(data, &byAnalyzer); err != nil {
		return err
	}
	for analyzer, v := range byAnalyzer {
		f.m[factKey{analyzer, pkg}] = v
	}
	return nil
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
