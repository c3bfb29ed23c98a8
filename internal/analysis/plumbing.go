package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Plumbing enforces struct-field exhaustiveness at the config seams.
// experiments.Params, sim.Config, and sim.SamplingConfig each flow
// through several copy/patch/merge/validate sites (applySpeed, the
// harness cell configs, the m5serve per-query patch, Params.Validate,
// the serve tree's checkpoint key); a field added to the struct but not
// routed through a seam is half-plumbed — it silently keeps its zero
// value on some path. Each seam declares itself with //m5:plumb <Type>
// [ignore=F1,F2] in its doc comment; the analyzer compares the struct's
// field set (from type information) against the fields the body
// actually mentions, and reports the difference in both
// directions: unrouted fields, and stale ignore entries.
//
// A second rule closes the harness seam without per-site annotations:
// in the experiments packages, any function building a sim.Config
// literal must also call applySpeed in the same body, so the sampling
// tier is patched into every cell config.
var Plumbing = &Analyzer{
	Name: "plumbing",
	Doc:  "config-struct fields must be handled at every //m5:plumb seam",
	Run:  runPlumbing,
}

// plumbHarnessPkg is the package-path prefix where every sim.Config
// literal must be accompanied by an applySpeed call.
const plumbHarnessPkg = "m5/internal/experiments"

func runPlumbing(pass *Pass) error {
	inHarness := pass.Pkg.Path() == plumbHarnessPkg || strings.HasPrefix(pass.Pkg.Path(), plumbHarnessPkg+"/")
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			for _, arg := range declMarkers(fd, markPlumb) {
				pass.checkPlumbSeam(fd, arg)
			}
			if inHarness {
				pass.checkHarnessConfigLiteral(fd)
			}
		}
	}
	return nil
}

// structFields returns the sorted field names of the named struct in
// the package's scope, or nil if it isn't a struct type there.
func structFields(pkg *types.Package, name string) []string {
	tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
	if !ok {
		return nil
	}
	st, ok := tn.Type().Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	fields := make([]string, 0, st.NumFields())
	for i := 0; i < st.NumFields(); i++ {
		fields = append(fields, st.Field(i).Name())
	}
	sortStrings(fields)
	return fields
}

// checkPlumbSeam verifies one //m5:plumb annotation: every field of the
// named struct is either mentioned in the body or listed in ignore=.
func (p *Pass) checkPlumbSeam(fd *ast.FuncDecl, arg string) {
	parts := strings.Fields(arg)
	if len(parts) == 0 {
		p.Reportf(fd.Pos(), "//m5:plumb needs a type: //m5:plumb <Type> [ignore=F1,F2]")
		return
	}
	ref := parts[0]
	ignored := map[string]bool{}
	for _, part := range parts[1:] {
		if rest, ok := strings.CutPrefix(part, "ignore="); ok {
			for _, f := range strings.Split(rest, ",") {
				if f != "" {
					ignored[f] = true
				}
			}
		} else {
			p.Reportf(fd.Pos(), "//m5:plumb %s: unrecognized parameter %q", ref, part)
		}
	}
	pkgPath, name, fields, ok := p.resolvePlumbType(ref)
	if !ok {
		p.Reportf(fd.Pos(), "//m5:plumb: cannot resolve struct %q from this package", ref)
		return
	}
	known := map[string]bool{}
	for _, f := range fields {
		known[f] = true
	}
	mentioned := p.mentionedFields(fd.Body, pkgPath, name)

	var missing, unknown, stale []string
	for _, f := range fields {
		if !mentioned[f] && !ignored[f] {
			missing = append(missing, f)
		}
	}
	for f := range ignored {
		if !known[f] {
			unknown = append(unknown, f)
		} else if mentioned[f] {
			stale = append(stale, f)
		}
	}
	sortStrings(missing)
	sortStrings(unknown)
	sortStrings(stale)
	if len(missing) > 0 {
		p.Reportf(fd.Pos(), "plumb(%s): field(s) not handled here: %s — route them or add them to ignore= with a reason in the doc comment",
			ref, strings.Join(missing, ", "))
	}
	if len(unknown) > 0 {
		p.Reportf(fd.Pos(), "plumb(%s): ignore= lists unknown field(s): %s", ref, strings.Join(unknown, ", "))
	}
	if len(stale) > 0 {
		p.Reportf(fd.Pos(), "plumb(%s): ignore= lists field(s) the body already handles: %s — drop the stale entries", ref, strings.Join(stale, ", "))
	}
}

// resolvePlumbType maps an annotation's type reference ("Params" or
// "experiments.Params") to its defining package path, name, and field
// list.
func (p *Pass) resolvePlumbType(ref string) (pkgPath, name string, fields []string, ok bool) {
	var defPkg *types.Package
	if qual, n, found := strings.Cut(ref, "."); found {
		name = n
		for _, imp := range p.Pkg.Imports() {
			if imp.Name() == qual {
				defPkg = imp
				break
			}
		}
		if defPkg == nil {
			return "", "", nil, false
		}
	} else {
		name = ref
		defPkg = p.Pkg
	}
	if fs := structFields(defPkg, name); fs != nil {
		return defPkg.Path(), name, fs, true
	}
	return "", "", nil, false
}

// mentionedFields collects the watched struct's fields the body touches:
// field selections on values of the struct type, and keys (or the full
// field set, for positional literals) of composite literals of it.
func (p *Pass) mentionedFields(body *ast.BlockStmt, pkgPath, name string) map[string]bool {
	mentioned := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			sel, ok := p.TypesInfo.Selections[n]
			if !ok || sel.Kind() != types.FieldVal {
				return true
			}
			if isNamedStruct(sel.Recv(), pkgPath, name) {
				mentioned[n.Sel.Name] = true
			}
		case *ast.CompositeLit:
			tv, ok := p.TypesInfo.Types[n]
			if !ok || !isNamedStruct(tv.Type, pkgPath, name) {
				return true
			}
			for _, elt := range n.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					// Positional literal: the compiler already forces
					// every field to appear.
					st, ok := tv.Type.Underlying().(*types.Struct)
					if ok {
						for i := 0; i < st.NumFields(); i++ {
							mentioned[st.Field(i).Name()] = true
						}
					}
					break
				}
				if id, ok := kv.Key.(*ast.Ident); ok {
					mentioned[id.Name] = true
				}
			}
		}
		return true
	})
	return mentioned
}

// isNamedStruct reports whether t (possibly behind a pointer) is the
// named type pkgPath.name.
func isNamedStruct(t types.Type, pkgPath, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// checkHarnessConfigLiteral enforces the cell-config seam: a function
// in the experiments tree that builds a sim.Config literal must also
// call applySpeed in the same body.
func (p *Pass) checkHarnessConfigLiteral(fd *ast.FuncDecl) {
	if fd.Name.Name == "applySpeed" {
		return
	}
	var firstLit *ast.CompositeLit
	callsApplySpeed := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			if firstLit == nil {
				if tv, ok := p.TypesInfo.Types[n]; ok && isNamedStruct(tv.Type, "m5/internal/sim", "Config") {
					firstLit = n
				}
			}
		case *ast.CallExpr:
			switch fun := n.Fun.(type) {
			case *ast.SelectorExpr:
				if fun.Sel.Name == "applySpeed" {
					callsApplySpeed = true
				}
			case *ast.Ident:
				if fun.Name == "applySpeed" {
					callsApplySpeed = true
				}
			}
		}
		return true
	})
	if firstLit != nil && !callsApplySpeed {
		p.Reportf(firstLit.Pos(), "sim.Config literal without an applySpeed call in the same function; the cell config bypasses the sampling tier — patch it with applySpeed (or build it inside a helper that does)")
	}
}
