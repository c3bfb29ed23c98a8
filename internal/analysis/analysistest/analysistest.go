// Package analysistest runs m5lint analyzers over GOPATH-style test
// corpora and matches their findings against `// want "substring"`
// annotations, in the spirit of golang.org/x/tools' analysistest but
// built on the in-repo analysis framework.
//
// A corpus lives under srcRoot/<import/path>/*.go. Each line that should
// produce a finding carries a trailing comment:
//
//	out = append(out, k) // want "append inside map iteration"
//
// Multiple expected findings on one line list multiple quoted strings.
// Every finding must be claimed by a want on its line, every want must
// be claimed by a finding, and each want claims exactly one finding.
package analysistest

import (
	"fmt"
	"go/token"
	"regexp"
	"strings"
	"testing"

	"m5/internal/analysis"
)

var (
	wantRE   = regexp.MustCompile(`//\s*want\s+(.*)$`)
	quotedRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)
)

type want struct {
	substr  string
	claimed bool
}

// Run loads the packages at paths from the srcRoot corpus tree, applies
// the analyzers, and reports any mismatch between findings and want
// annotations as test errors.
func Run(t *testing.T, srcRoot string, analyzers []*analysis.Analyzer, paths ...string) {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := analysis.LoadTestdata(fset, srcRoot, paths...)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := analysis.Run(fset, pkgs, analyzers)
	if err != nil {
		t.Fatal(err)
	}

	wants := map[string][]*want{} // "file:line" -> expectations
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRE.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := fset.Position(c.Pos())
					key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
					for _, q := range quotedRE.FindAllStringSubmatch(m[1], -1) {
						wants[key] = append(wants[key], &want{substr: q[1]})
					}
				}
			}
		}
	}

	for _, d := range ds {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		claimed := false
		for _, w := range wants[key] {
			if !w.claimed && strings.Contains(d.Message, w.substr) {
				w.claimed = true
				claimed = true
				break
			}
		}
		if !claimed {
			t.Errorf("unexpected finding at %s: [%s] %s", key, d.Analyzer, d.Message)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.claimed {
				t.Errorf("%s: expected a finding containing %q, got none", key, w.substr)
			}
		}
	}
}
