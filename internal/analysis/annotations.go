package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The annotation grammar (DESIGN.md §8):
//
//	//m5:hotpath        — on a function declaration's doc comment: the
//	                      function is a pinned allocation-free path.
//	//m5:coldpath       — on a statement inside a hotpath function (same
//	                      line or the line above): the statement is a
//	                      declared slow-path exit, exempt from hotpath
//	                      checks.
//	//m5:orderinvariant — on a map-range statement in a determinism-
//	                      scoped package: the loop has been reviewed as
//	                      order-insensitive; a justification should
//	                      follow on the same line.
//	//m5:plumb <Type> [ignore=F1,F2,...]
//	                    — on a function declaration's doc comment: the
//	                      body is a copy/patch/merge/validate seam for
//	                      the named config struct and must mention every
//	                      field except the declared ignores.
//	//m5:guardedby <mu> — on a struct field: the field may only be read
//	                      or written while the sibling mutex <mu> of the
//	                      same receiver is held.
//	//m5:locked <mu>    — on a function declaration's doc comment: every
//	                      caller holds the receiver's mutex <mu>
//	                      (lock-discipline analysis assumes it held).
const (
	markHotpath        = "hotpath"
	markColdpath       = "coldpath"
	markOrderInvariant = "orderinvariant"
	markPlumb          = "plumb"
	markGuardedBy      = "guardedby"
	markLocked         = "locked"
)

// marker parses "m5:<name> ..." comment text; ok is false for ordinary
// comments.
func marker(text string) (string, bool) {
	name, _, ok := markerArg(text)
	return name, ok
}

// markerArg parses "m5:<name> <arg...>" comment text, returning the
// marker name and the trimmed remainder of the line (the justification
// or parameter list).
func markerArg(text string) (name, arg string, ok bool) {
	text = strings.TrimPrefix(text, "//")
	if !strings.HasPrefix(text, "m5:") {
		return "", "", false
	}
	rest := strings.TrimPrefix(text, "m5:")
	name = rest
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		name, arg = rest[:i], strings.TrimSpace(rest[i:])
	}
	return name, arg, name != ""
}

// markerInfo is one parsed //m5: annotation attached to a source line.
type markerInfo struct {
	name string
	arg  string
}

// markerLine is one source line of one file: markers are keyed by both,
// since the files of a package share line numbers.
type markerLine struct {
	file string
	line int
}

// collectMarkers maps source lines to in-function markers (coldpath,
// orderinvariant, ...). A marker governs the
// statement on its own line or, for a comment on a line of its own, the
// line below, in its own file only.
func collectMarkers(fset *token.FileSet, files []*ast.File) map[markerLine]markerInfo {
	out := map[markerLine]markerInfo{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				name, arg, ok := markerArg(c.Text)
				if !ok || name == markHotpath {
					continue
				}
				// The marker governs from its own line through the end
				// of its comment group, so a multi-line justification
				// between the marker and the statement keeps it attached.
				pos := fset.Position(c.Pos())
				for line := pos.Line; line <= fset.Position(cg.End()).Line; line++ {
					out[markerLine{pos.Filename, line}] = markerInfo{name, arg}
				}
			}
		}
	}
	return out
}

// markedAt reports whether the node's first line, or the line directly
// above it, carries the marker.
func (p *Pass) markedAt(n ast.Node, name string) bool {
	_, ok := p.markerAt(n, name)
	return ok
}

// markerAt returns the argument of the named marker governing the
// node's first line (or the line directly above it).
func (p *Pass) markerAt(n ast.Node, name string) (string, bool) {
	pos := p.Fset.Position(n.Pos())
	for _, line := range []int{pos.Line, pos.Line - 1} {
		if m, ok := p.markers[markerLine{pos.Filename, line}]; ok && m.name == name {
			return m.arg, true
		}
	}
	return "", false
}

// isHotpathDecl reports whether the function declaration carries the
// //m5:hotpath annotation in its doc comment.
func isHotpathDecl(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if name, ok := marker(c.Text); ok && name == markHotpath {
			return true
		}
	}
	return false
}

// declMarkers returns the arguments of every occurrence of the named
// marker in the declaration's doc comment, in source order.
func declMarkers(fd *ast.FuncDecl, name string) []string {
	if fd.Doc == nil {
		return nil
	}
	var args []string
	for _, c := range fd.Doc.List {
		if n, arg, ok := markerArg(c.Text); ok && n == name {
			args = append(args, arg)
		}
	}
	return args
}

// funcKey is the stable identity of a function or method within its
// package: "Name" for package functions, "Type.Name" for methods
// (pointer receivers included as "Type").
func funcKey(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return fn.Name()
	}
	rt := sig.Recv().Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	if named, ok := rt.(*types.Named); ok {
		return named.Obj().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// declKey is funcKey computed syntactically from a declaration.
func declKey(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	// Generic receivers (Type[T]) don't occur in this module; plain
	// identifiers cover every receiver the suite annotates.
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	if idx, ok := t.(*ast.IndexExpr); ok {
		if id, ok := idx.X.(*ast.Ident); ok {
			return id.Name + "." + fd.Name.Name
		}
	}
	return fd.Name.Name
}
