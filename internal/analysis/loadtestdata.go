package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/importer"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
)

// LoadTestdata loads analyzer test corpora from a GOPATH-style tree:
// srcRoot/<import/path>/*.go. Imports resolve within the tree first
// (so corpora can ship stub versions of m5 packages under their real
// import paths), then fall back to the toolchain's standard library
// export data. Packages are returned in dependency order.
func LoadTestdata(fset *token.FileSet, srcRoot string, paths ...string) ([]*Package, error) {
	l := &testdataLoader{
		fset:    fset,
		srcRoot: srcRoot,
		built:   map[string]*Package{},
		std:     newStdImporter(fset),
	}
	for _, p := range paths {
		if _, err := l.load(p); err != nil {
			return nil, err
		}
	}
	return l.order, nil
}

type testdataLoader struct {
	fset    *token.FileSet
	srcRoot string
	built   map[string]*Package
	order   []*Package
	loading []string
	std     *stdImporter
}

func (l *testdataLoader) load(path string) (*Package, error) {
	if p, ok := l.built[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("analysis: import cycle through %q (%v)", path, l.loading)
		}
		return p, nil
	}
	dir := filepath.Join(l.srcRoot, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: testdata package %q: %v", path, err)
	}
	var goFiles []string
	for _, e := range entries {
		name := e.Name()
		if filepath.Ext(name) == ".go" {
			goFiles = append(goFiles, name)
		}
	}
	sort.Strings(goFiles)
	if len(goFiles) == 0 {
		return nil, fmt.Errorf("analysis: testdata package %q has no Go files", path)
	}
	l.built[path] = nil // cycle marker
	l.loading = append(l.loading, path)
	imp := importerFunc(func(ip string) (*types.Package, error) {
		if _, err := os.Stat(filepath.Join(l.srcRoot, filepath.FromSlash(ip))); err == nil {
			p, err := l.load(ip)
			if err != nil {
				return nil, err
			}
			return p.Types, nil
		}
		return l.std.Import(ip)
	})
	pkg, err := checkPackage(l.fset, imp, path, dir, goFiles)
	l.loading = l.loading[:len(l.loading)-1]
	if err != nil {
		return nil, err
	}
	l.built[path] = pkg
	l.order = append(l.order, pkg)
	return pkg, nil
}

// stdImporter satisfies standard-library imports from export data,
// resolving export file locations on demand with `go list -export`.
type stdImporter struct {
	mu      sync.Mutex
	exports map[string]string
	imp     types.Importer
}

func newStdImporter(fset *token.FileSet) *stdImporter {
	s := &stdImporter{exports: map[string]string{}}
	s.imp = importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, err := s.exportFile(path)
		if err != nil {
			return nil, err
		}
		return os.Open(f)
	})
	return s
}

func (s *stdImporter) Import(path string) (*types.Package, error) {
	return s.imp.Import(path)
}

func (s *stdImporter) exportFile(path string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, ok := s.exports[path]; ok {
		return f, nil
	}
	cmd := exec.Command("go", "list", "-export", "-deps", "-json=ImportPath,Export", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("analysis: go list -export %s: %v\n%s", path, err, stderr.Bytes())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var m struct{ ImportPath, Export string }
		if err := dec.Decode(&m); err == io.EOF {
			break
		} else if err != nil {
			return "", err
		}
		if m.Export != "" {
			s.exports[m.ImportPath] = m.Export
		}
	}
	f, ok := s.exports[path]
	if !ok {
		return "", fmt.Errorf("analysis: no export data for %s", strconv.Quote(path))
	}
	return f, nil
}
