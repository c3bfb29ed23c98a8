// Command m5lint checks the repository against the simulator's source
// invariants with five analyzers: determinism of the simulation
// packages, the //m5:hotpath zero-alloc discipline, lock discipline in
// the concurrent layers, the obs scope.metric naming grammar, and
// config-seam plumbing. See DESIGN.md §8 for the contract each analyzer
// enforces.
//
//	go run ./cmd/m5lint [-json] [packages]   # default ./...
//
// Exit status: 0 clean, 1 findings, 2 usage or load failure (load
// errors go to stderr, never stdout, so piped findings stay parseable).
// Findings print one per line as file:line:col: [analyzer] message,
// sorted by position, so reports diff stably across runs. -json swaps
// the line format for a JSON array of findings (still stdout; summary
// and errors stay on stderr).
package main

import (
	"encoding/json"
	"fmt"
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

// run loads the requested patterns (default ./...) from the module in
// the current directory and analyzes them all in one process. With
// -json the findings go to stdout as a JSON array, empty when clean, so
// CI artifact consumers always get valid JSON.
func run(args []string, stdout, stderr io.Writer) int {
	jsonOut := false
	var patterns []string
	for _, a := range args {
		switch {
		case a == "-json" || a == "--json":
			jsonOut = true
		case strings.HasPrefix(a, "-"):
			fmt.Fprintf(stderr, "m5lint: unknown flag %s\nusage: m5lint [-json] [packages]\n", a)
			return 2
		default:
			patterns = append(patterns, a)
		}
	}
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
	if cwd, err := os.Getwd(); err == nil {
		for i := range ds {
			if rel, err := filepath.Rel(cwd, ds[i].Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
				ds[i].Pos.Filename = rel
			}
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
