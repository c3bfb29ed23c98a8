package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	PkgPath   string
	Dir       string
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// listedPkg is the subset of `go list -json` output the loader reads.
type listedPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

// LoadModule loads the packages matching patterns (resolved in dir, the
// module root) plus their in-module dependencies, all type-checked from
// source. Standard-library imports are satisfied from the toolchain's
// export data, so loading needs no network and no third-party modules.
// Packages are returned in dependency order: a package always appears
// after every package it imports.
func LoadModule(fset *token.FileSet, dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{
		"list", "-e", "-export", "-deps",
		"-json=ImportPath,Dir,Export,GoFiles,Standard,DepOnly,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list %v: %v\n%s", patterns, err, stderr.Bytes())
	}

	metas := map[string]*listedPkg{}
	var order []*listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var m listedPkg
		if err := dec.Decode(&m); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %v", err)
		}
		if m.Error != nil {
			return nil, fmt.Errorf("analysis: %s: %s", m.ImportPath, m.Error.Err)
		}
		// Packages compiled per-main list as "path [main/pkg]"; imports
		// refer to the plain path, so index under the normalized form.
		if i := strings.Index(m.ImportPath, " ["); i >= 0 {
			m.ImportPath = m.ImportPath[:i]
		}
		if prev, ok := metas[m.ImportPath]; ok {
			if prev.Export == "" && m.Export != "" {
				prev.Export = m.Export
			}
			continue
		}
		mm := m
		metas[m.ImportPath] = &mm
		order = append(order, &mm)
	}

	// Standard-library imports resolve through export data; in-module
	// imports resolve to the source-checked *types.Package built earlier
	// in the dependency-ordered walk below.
	built := map[string]*Package{}
	lookup := func(path string) (io.ReadCloser, error) {
		m, ok := metas[path]
		if !ok || m.Export == "" {
			return nil, fmt.Errorf("analysis: no export data for %q", path)
		}
		return os.Open(m.Export)
	}
	std := importer.ForCompiler(fset, "gc", lookup)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := built[path]; ok {
			return p.Types, nil
		}
		return std.Import(path)
	})

	var pkgs []*Package
	for _, m := range order {
		if m.Standard || m.ImportPath == "unsafe" {
			continue
		}
		pkg, err := checkPackage(fset, imp, m.ImportPath, m.Dir, m.GoFiles)
		if err != nil {
			return nil, err
		}
		built[m.ImportPath] = pkg
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// checkPackage parses and type-checks one package from source, with
// imports satisfied by imp.
func checkPackage(fset *token.FileSet, imp types.Importer, path, dir string, goFiles []string) (*Package, error) {
	var files []*ast.File
	for _, name := range goFiles {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: parsing %s: %v", name, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %v", path, err)
	}
	return &Package{PkgPath: path, Dir: dir, Files: files, Types: tpkg, TypesInfo: info}, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
