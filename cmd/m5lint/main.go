// Command m5lint checks the repository against the simulator's source
// invariants with seven analyzers: determinism of the simulation
// packages, the //m5:hotpath zero-alloc discipline, the obs scope.metric
// naming grammar, init-time collision-free policy/workload registration,
// config-seam plumbing, lock discipline in the concurrent layers, and
// float confinement in the byte-identity metric packages.
// See DESIGN.md §8 for the contract each analyzer enforces.
//
// Standalone:
//
//	go run ./cmd/m5lint ./...
//
// As a vet tool (unit-checker protocol, one package per invocation,
// facts carried between units in .vetx files):
//
//	go vet -vettool=$(which m5lint) ./...
//
// Exit status: 0 clean, 1 findings, 2 usage or load failure (load
// errors go to stderr, never stdout, so piped findings stay parseable).
// Findings print one per line as file:line:col: [analyzer] message,
// sorted by position, so reports diff stably across runs. -json swaps
// the line format for a JSON array of findings (still stdout; summary
// and errors stay on stderr). -fix applies the mechanical suggested
// fixes — nil-receiver guards, sort-after-map-range, annotation stubs —
// in place, then prints the findings of the pre-fix tree; rerun to
// confirm the tree converged.
package main

import (
	"encoding/json"
	"fmt"
	"go/importer"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"strings"

	"m5/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	// The cmd/go vet driver probes the tool before using it: -V=full
	// asks for a version stamp (cached in the build cache key) and
	// -flags asks which flags the tool accepts (none beyond the
	// protocol's own).
	for _, a := range args {
		switch {
		case strings.HasPrefix(a, "-V="), strings.HasPrefix(a, "--V="):
			fmt.Fprintf(stdout, "m5lint version v1.0.0\n")
			return 0
		case a == "-flags", a == "--flags":
			fmt.Fprintln(stdout, "[]")
			return 0
		}
	}
	var jsonOut, applyFix bool
	patterns := args[:0:0]
	for _, a := range args {
		switch a {
		case "-json", "--json":
			jsonOut = true
		case "-fix", "--fix":
			applyFix = true
		default:
			patterns = append(patterns, a)
		}
	}
	if len(patterns) == 1 && strings.HasSuffix(patterns[0], ".cfg") {
		return runVetUnit(patterns[0], stderr)
	}
	return runStandalone(patterns, jsonOut, applyFix, stdout, stderr)
}

// runStandalone loads the requested patterns (default ./...) from the
// current module and analyzes them all in one process. With jsonOut the
// findings go to stdout as a JSON array (empty array when clean, so CI
// artifact consumers always get valid JSON); with applyFix, mechanical
// suggested fixes are written back to the source files before findings
// print (the printed findings describe the tree as analyzed, i.e. before
// the rewrite — rerun to confirm convergence).
func runStandalone(patterns []string, jsonOut, applyFix bool, stdout, stderr io.Writer) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	fset := token.NewFileSet()
	pkgs, err := analysis.LoadModule(fset, ".", patterns...)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if len(pkgs) == 0 {
		fmt.Fprintf(stderr, "m5lint: no packages matched %s\n", strings.Join(patterns, " "))
		return 2
	}
	ds, err := analysis.Run(fset, pkgs, analysis.All())
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	cwd, _ := os.Getwd()
	for i := range ds {
		if cwd != "" {
			if rel, err := filepath.Rel(cwd, ds[i].Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
				ds[i].Pos.Filename = rel
			}
		}
	}
	if applyFix && len(ds) > 0 {
		changed, skipped, err := analysis.ApplyFixes(ds)
		if err != nil {
			fmt.Fprintf(stderr, "m5lint: applying fixes: %v\n", err)
			return 2
		}
		for _, f := range changed {
			fmt.Fprintf(stderr, "m5lint: fixed %s\n", f)
		}
		if skipped > 0 {
			fmt.Fprintf(stderr, "m5lint: %d fix edit(s) skipped (overlap or out of range)\n", skipped)
		}
	}
	if jsonOut {
		if ds == nil {
			ds = []analysis.Diagnostic{}
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "\t")
		if err := enc.Encode(ds); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	} else {
		for _, d := range ds {
			fmt.Fprintln(stdout, d.String())
		}
	}
	if len(ds) == 0 {
		return 0
	}
	fmt.Fprintf(stderr, "m5lint: %d finding(s)\n", len(ds))
	return 1
}

// vetConfig is the subset of cmd/go's vet .cfg file the unit checker
// needs: enough to re-typecheck the unit's sources against the export
// data the build already produced, and to thread analyzer facts along
// the import graph through .vetx files.
type vetConfig struct {
	ID                        string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	NonGoFiles                []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// runVetUnit analyzes a single package as directed by a vet config
// file, in the unit-checker protocol cmd/go speaks to -vettool tools.
func runVetUnit(cfgPath string, stderr io.Writer) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(stderr, "m5lint: parsing %s: %v\n", cfgPath, err)
		return 2
	}

	// Test code is outside the lint contract — the standalone mode
	// analyzes only production sources, and tests legitimately read the
	// wall clock, iterate maps into t.Fatalf, and register duplicates to
	// provoke panics. Skip test variants and *_test.go files so both
	// modes enforce the same thing.
	if isTestUnit(cfg.ID) || isTestUnit(cfg.ImportPath) {
		return emitEmptyVetx(&cfg, stderr)
	}
	kept := cfg.GoFiles[:0]
	for _, f := range cfg.GoFiles {
		if !strings.HasSuffix(f, "_test.go") {
			kept = append(kept, f)
		}
	}
	cfg.GoFiles = kept
	if len(cfg.GoFiles) == 0 {
		return emitEmptyVetx(&cfg, stderr)
	}

	fset := token.NewFileSet()
	pkg, err := loadVetUnit(fset, &cfg)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		if cfg.VetxOnly {
			// A facts-only dependency unit that cannot be re-typechecked
			// (cgo-generated sources absent outside the build that made
			// the export data) contributes no m5 facts; degrade to an
			// empty vetx rather than failing the whole vet run.
			return emitEmptyVetx(&cfg, stderr)
		}
		fmt.Fprintln(stderr, err)
		return 2
	}

	// Seed the fact store from the dependencies' .vetx files so
	// cross-package checks (registry collisions, hotpath callee facts)
	// see everything below this unit in the import graph.
	facts := analysis.NewFactSet()
	for path, vetx := range cfg.PackageVetx {
		b, err := os.ReadFile(vetx)
		if err != nil {
			continue // missing dep facts degrade, not fail
		}
		if err := facts.Decode(path, b); err != nil {
			fmt.Fprintf(stderr, "m5lint: decoding facts for %s: %v\n", path, err)
			return 2
		}
	}

	ds, err := analysis.RunWithFacts(fset, []*analysis.Package{pkg}, analysis.All(), facts)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, facts.Encode(pkg.PkgPath), 0o666); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}
	if cfg.VetxOnly || len(ds) == 0 {
		return 0
	}
	for _, d := range ds {
		fmt.Fprintf(stderr, "%s\n", d.String())
	}
	return 1
}

// isTestUnit recognizes the three shapes of test compilation units in
// vet configs: the internal-test variant ("p [p.test]"), the external
// test package ("p_test"), and the synthesized test main ("p.test").
func isTestUnit(path string) bool {
	return strings.Contains(path, " [") ||
		strings.HasSuffix(path, ".test") ||
		strings.HasSuffix(path, "_test")
}

// emitEmptyVetx satisfies the protocol for a skipped unit: cmd/go still
// expects the facts file to exist for importers to read.
func emitEmptyVetx(cfg *vetConfig, stderr io.Writer) int {
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, analysis.NewFactSet().Encode(cfg.ImportPath), 0o666); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}
	return 0
}

// loadVetUnit type-checks the unit's Go files, resolving every import
// through the export data recorded in the vet config.
func loadVetUnit(fset *token.FileSet, cfg *vetConfig) (*analysis.Package, error) {
	lookup := func(path string) (io.ReadCloser, error) {
		if cfg.ImportMap != nil {
			if mapped, ok := cfg.ImportMap[path]; ok {
				path = mapped
			}
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("m5lint: no export data for %q", path)
		}
		return os.Open(file)
	}
	imp := importer.ForCompiler(fset, "gc", lookup)
	names := make([]string, 0, len(cfg.GoFiles))
	for _, f := range cfg.GoFiles {
		names = append(names, filepath.Base(f))
	}
	dir := cfg.Dir
	if len(cfg.GoFiles) > 0 {
		dir = filepath.Dir(cfg.GoFiles[0])
	}
	return analysis.CheckPackage(fset, imp, cfg.ImportPath, dir, names)
}
