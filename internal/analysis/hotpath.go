package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Hotpath enforces the zero-allocation contract on annotated functions:
// a function marked //m5:hotpath (the TLB/translate, cache, DRAM,
// tape-cursor, sketch, and obs update paths pinned by AllocsPerRun
// gates) must not contain heap-allocating constructs — make/new,
// escaping or slice/map composite literals, variable-capturing
// closures, interface-boxing conversions, unbounded append, string
// building, fmt — and may only call other hotpath functions, except
// through statements explicitly marked //m5:coldpath (declared
// slow-path exits: fault handling, growth, error paths).
var Hotpath = &Analyzer{
	Name: "hotpath",
	Doc: "forbid allocating constructs and non-hotpath calls in " +
		"//m5:hotpath-annotated functions",
	Run: runHotpath,
}

// hotpathDenied are standard-library package paths (or path prefixes)
// that have no business on an allocation-free path.
var hotpathDenied = []string{
	"fmt", "errors", "log", "os", "io", "bufio", "bytes", "strings",
	"strconv", "reflect", "time", "sort", "encoding", "regexp",
	"runtime/debug", "runtime/trace", "runtime/pprof",
}

func hotpathDeniedPkg(path string) bool {
	for _, d := range hotpathDenied {
		if path == d || strings.HasPrefix(path, d+"/") {
			return true
		}
	}
	return false
}

func runHotpath(pass *Pass) error {
	// Collect this package's annotated functions first, so intra-package
	// calls between hotpath functions resolve regardless of file order.
	local := map[string]bool{}
	var decls []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !isHotpathDecl(fd) {
				continue
			}
			local[declKey(fd)] = true
			decls = append(decls, fd)
		}
	}
	// The package's fact is its set of annotated functions, keyed by
	// funcKey, so importers can validate cross-package calls.
	pass.ExportFact(local)

	for _, fd := range decls {
		if fd.Body == nil {
			continue
		}
		hc := &hotpathChecker{pass: pass, local: local, results: fd.Type.Results}
		hc.stmts(fd.Body.List)
	}
	return nil
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// hotpathChecker walks one hotpath function body. Statements marked
// //m5:coldpath are skipped wholesale.
type hotpathChecker struct {
	pass    *Pass
	local   map[string]bool
	results *ast.FieldList // enclosing function's results, for returns
	// allowedAppend marks append calls in sanctioned self-append form
	// (x = append(x, ...)).
	allowedAppend map[*ast.CallExpr]bool
	// callFuns marks expressions appearing in call position, so method
	// values (which allocate) can be told apart from method calls.
	callFuns map[ast.Expr]bool
}

func (hc *hotpathChecker) stmts(list []ast.Stmt) {
	for _, s := range list {
		hc.stmt(s)
	}
}

func (hc *hotpathChecker) stmt(s ast.Stmt) {
	if s == nil || hc.pass.markedAt(s, markColdpath) {
		return
	}
	switch s := s.(type) {
	case *ast.AssignStmt:
		for i, rhs := range s.Rhs {
			if call, ok := rhs.(*ast.CallExpr); ok && isBuiltinCall(hc.pass, call, "append") &&
				len(s.Lhs) == len(s.Rhs) && len(call.Args) > 0 {
				if types.ExprString(s.Lhs[i]) == types.ExprString(call.Args[0]) {
					hc.allowAppend(call)
				}
			}
		}
		for i, lhs := range s.Lhs {
			if len(s.Rhs) == len(s.Lhs) {
				hc.conv(s.Rhs[i], hc.lhsType(lhs, s.Tok))
			}
		}
		hc.exprs(s.Rhs)
		hc.exprs(s.Lhs)
	case *ast.ReturnStmt:
		if hc.results != nil {
			params := hc.results.List
			// Match result expressions to declared result types
			// positionally (grouped fields expand in order).
			var rts []ast.Expr
			for _, f := range params {
				n := len(f.Names)
				if n == 0 {
					n = 1
				}
				for i := 0; i < n; i++ {
					rts = append(rts, f.Type)
				}
			}
			if len(rts) == len(s.Results) {
				for i, r := range s.Results {
					if tv, ok := hc.pass.TypesInfo.Types[rts[i]]; ok {
						hc.conv(r, tv.Type)
					}
				}
			}
		}
		hc.exprs(s.Results)
	case *ast.ExprStmt:
		hc.expr(s.X)
	case *ast.IncDecStmt:
		hc.expr(s.X)
	case *ast.IfStmt:
		hc.stmt(s.Init)
		hc.expr(s.Cond)
		hc.stmt(s.Body)
		hc.stmt(s.Else)
	case *ast.ForStmt:
		hc.stmt(s.Init)
		hc.expr(s.Cond)
		hc.stmt(s.Post)
		hc.stmt(s.Body)
	case *ast.RangeStmt:
		hc.expr(s.X)
		hc.stmt(s.Body)
	case *ast.BlockStmt:
		hc.stmts(s.List)
	case *ast.SwitchStmt:
		hc.stmt(s.Init)
		hc.expr(s.Tag)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				hc.exprs(cc.List)
				hc.stmts(cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		hc.stmt(s.Init)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				hc.stmts(cc.Body)
			}
		}
	case *ast.GoStmt:
		hc.report(s.Pos(), "go statement in hotpath function")
	case *ast.DeferStmt:
		hc.report(s.Pos(), "defer in hotpath function")
	case *ast.SendStmt:
		hc.report(s.Pos(), "channel send in hotpath function")
	case *ast.SelectStmt:
		hc.report(s.Pos(), "select in hotpath function")
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					hc.exprs(vs.Values)
				}
			}
		}
	case *ast.LabeledStmt:
		hc.stmt(s.Stmt)
	case *ast.BranchStmt, *ast.EmptyStmt:
	}
}

func (hc *hotpathChecker) exprs(list []ast.Expr) {
	for _, e := range list {
		hc.expr(e)
	}
}

func (hc *hotpathChecker) expr(e ast.Expr) {
	if e == nil {
		return
	}
	switch e := e.(type) {
	case *ast.CallExpr:
		hc.call(e)
	case *ast.CompositeLit:
		hc.composite(e, false)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			if cl, ok := e.X.(*ast.CompositeLit); ok {
				hc.composite(cl, true)
				return
			}
		}
		if e.Op == token.ARROW {
			hc.report(e.Pos(), "channel receive in hotpath function")
		}
		hc.expr(e.X)
	case *ast.FuncLit:
		hc.funcLit(e)
	case *ast.BinaryExpr:
		if e.Op == token.ADD {
			if tv, ok := hc.pass.TypesInfo.Types[e]; ok && tv.Value == nil {
				if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
					hc.report(e.Pos(), "string concatenation allocates in hotpath function")
				}
			}
		}
		hc.expr(e.X)
		hc.expr(e.Y)
	case *ast.SelectorExpr:
		if !hc.inCallPos(e) {
			if sel, ok := hc.pass.TypesInfo.Selections[e]; ok && sel.Kind() == types.MethodVal {
				hc.report(e.Pos(), "method value allocates in hotpath function; call it directly or hoist to setup")
			}
		}
		hc.expr(e.X)
	case *ast.ParenExpr:
		hc.expr(e.X)
	case *ast.StarExpr:
		hc.expr(e.X)
	case *ast.IndexExpr:
		hc.expr(e.X)
		hc.expr(e.Index)
	case *ast.IndexListExpr:
		hc.expr(e.X)
		hc.exprs(e.Indices)
	case *ast.SliceExpr:
		hc.expr(e.X)
		hc.expr(e.Low)
		hc.expr(e.High)
		hc.expr(e.Max)
	case *ast.TypeAssertExpr:
		hc.expr(e.X)
	case *ast.KeyValueExpr:
		hc.expr(e.Key)
		hc.expr(e.Value)
	}
}

// call vets one call expression: allocation builtins, conversions,
// denied stdlib, and the hotpath-callee rule.
func (hc *hotpathChecker) call(call *ast.CallExpr) {
	hc.markCallFun(call.Fun)
	defer hc.exprs(call.Args)
	defer hc.expr(call.Fun)

	// Type conversions.
	if tv, ok := hc.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		hc.conv(call.Args[0], tv.Type)
		hc.convStringBytes(call, tv.Type)
		return
	}

	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if b, ok := hc.pass.TypesInfo.Uses[fun].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				hc.report(call.Pos(), "make allocates in hotpath function; preallocate at setup")
			case "new":
				hc.report(call.Pos(), "new allocates in hotpath function; preallocate at setup")
			case "append":
				hc.checkAppend(call)
			case "print", "println":
				hc.report(call.Pos(), "%s in hotpath function", b.Name())
			}
			return
		}
	}
	hc.callee(call)
	hc.callArgs(call)
}

// checkAppend enforces the scratch discipline: append is allowed only
// in self-append form (x = append(x, ...)) or when the destination is
// an explicit reslice (append(buf[:0], ...)); anything else is growth
// the allocator may serve.
func (hc *hotpathChecker) checkAppend(call *ast.CallExpr) {
	if hc.allowedAppend[call] {
		return
	}
	if len(call.Args) > 0 {
		if _, ok := call.Args[0].(*ast.SliceExpr); ok {
			return
		}
	}
	hc.report(call.Pos(), "append outside the scratch discipline (x = append(x, ...) or append(buf[:n], ...)) may grow in hotpath function")
}

// callee enforces the hotpath-callee rule on statically-resolved calls
// into this module. Dynamic dispatch (interface methods, func values)
// cannot be resolved statically and is left to the AllocsPerRun gates.
func (hc *hotpathChecker) callee(call *ast.CallExpr) {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = hc.pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := hc.pass.TypesInfo.Selections[fun]; ok {
			if _, isIface := sel.Recv().Underlying().(*types.Interface); isIface {
				return // dynamic dispatch
			}
			obj = sel.Obj()
		} else {
			obj = hc.pass.TypesInfo.Uses[fun.Sel]
		}
	default:
		return // func-value call
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	path := fn.Pkg().Path()
	if !strings.HasPrefix(path, "m5/") && path != "m5" {
		if hotpathDeniedPkg(path) {
			hc.report(call.Pos(), "call to %s.%s in hotpath function", path, fn.Name())
		}
		return
	}
	key := funcKey(fn)
	if fn.Pkg() == hc.pass.Pkg {
		if !hc.local[key] {
			hc.report(call.Pos(), "call to non-hotpath function %s from hotpath function; annotate it //m5:hotpath or mark this call //m5:coldpath", key)
		}
		return
	}
	if fact, _ := hc.pass.ImportFact(path).(map[string]bool); fact[key] {
		return
	}
	hc.report(call.Pos(), "call to non-hotpath function %s.%s from hotpath function; annotate it //m5:hotpath or mark this call //m5:coldpath", path, key)
}

// callArgs checks interface boxing at the call boundary.
func (hc *hotpathChecker) callArgs(call *ast.CallExpr) {
	tv, ok := hc.pass.TypesInfo.Types[call.Fun]
	if !ok {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		if sig.Variadic() && i >= params.Len()-1 && call.Ellipsis == token.NoPos {
			if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		} else if i < params.Len() {
			pt = params.At(i).Type()
		}
		if pt != nil {
			hc.conv(arg, pt)
		}
	}
}

// composite vets a composite literal. Struct and array value literals
// live on the stack; slice and map literals, and any literal whose
// address is taken, reach the heap.
func (hc *hotpathChecker) composite(cl *ast.CompositeLit, addressTaken bool) {
	tv, ok := hc.pass.TypesInfo.Types[cl]
	if ok {
		switch tv.Type.Underlying().(type) {
		case *types.Slice:
			hc.report(cl.Pos(), "slice literal allocates in hotpath function; preallocate at setup")
		case *types.Map:
			hc.report(cl.Pos(), "map literal allocates in hotpath function; preallocate at setup")
		default:
			if addressTaken {
				hc.report(cl.Pos(), "&composite literal escapes to the heap in hotpath function; reuse a preallocated value")
			}
		}
	}
	for _, e := range cl.Elts {
		if kv, ok := e.(*ast.KeyValueExpr); ok {
			hc.expr(kv.Value)
		} else {
			hc.expr(e)
		}
	}
}

// funcLit flags closures that capture enclosing variables (closure
// environments are heap-allocated).
func (hc *hotpathChecker) funcLit(fl *ast.FuncLit) {
	captured := map[string]bool{}
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := hc.pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || v.IsField() || v.Pkg() != hc.pass.Pkg {
			return true
		}
		// Captured: declared outside the literal but not at package
		// scope.
		if (v.Pos() < fl.Pos() || v.Pos() > fl.End()) && v.Parent() != hc.pass.Pkg.Scope() {
			captured[v.Name()] = true
		}
		return true
	})
	if len(captured) > 0 {
		names := make([]string, 0, len(captured))
		for n := range captured {
			names = append(names, n)
		}
		sortStrings(names)
		hc.report(fl.Pos(), "closure captures %s in hotpath function (heap-allocated environment); hoist it to setup", strings.Join(names, ", "))
	}
	// The literal's own body still runs on the hot path.
	saved := hc.results
	hc.results = fl.Type.Results
	hc.stmts(fl.Body.List)
	hc.results = saved
}

// conv flags implicit or explicit conversions that box a non-pointer-
// shaped concrete value into an interface.
func (hc *hotpathChecker) conv(expr ast.Expr, dst types.Type) {
	if dst == nil || expr == nil {
		return
	}
	if _, ok := dst.Underlying().(*types.Interface); !ok {
		return
	}
	tv, ok := hc.pass.TypesInfo.Types[expr]
	if !ok || tv.Type == nil {
		return
	}
	src := tv.Type
	if b, ok := src.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return
	}
	if _, ok := src.Underlying().(*types.Interface); ok {
		return
	}
	if pointerShaped(src) {
		return
	}
	hc.report(expr.Pos(), "conversion of %s to interface %s boxes the value on the heap in hotpath function", src, dst)
}

// convStringBytes flags string<->[]byte/[]rune conversions, which copy.
func (hc *hotpathChecker) convStringBytes(call *ast.CallExpr, dst types.Type) {
	src, ok := hc.pass.TypesInfo.Types[call.Args[0]]
	if !ok {
		return
	}
	isStr := func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isByteSlice := func(t types.Type) bool {
		s, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		b, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
	}
	if isStr(dst) && isByteSlice(src.Type) || isByteSlice(dst) && isStr(src.Type) {
		hc.report(call.Pos(), "string/[]byte conversion copies in hotpath function")
	}
}

// pointerShaped reports whether values of the type fit an interface
// word without boxing (pointers, channels, maps, funcs, unsafe.Pointer).
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

func (hc *hotpathChecker) lhsType(lhs ast.Expr, tok token.Token) types.Type {
	if tok == token.DEFINE {
		return nil // target type inferred from RHS: no conversion
	}
	if tv, ok := hc.pass.TypesInfo.Types[lhs]; ok {
		return tv.Type
	}
	return nil
}

func (hc *hotpathChecker) allowAppend(call *ast.CallExpr) {
	if hc.allowedAppend == nil {
		hc.allowedAppend = map[*ast.CallExpr]bool{}
	}
	hc.allowedAppend[call] = true
}

func (hc *hotpathChecker) markCallFun(e ast.Expr) {
	if hc.callFuns == nil {
		hc.callFuns = map[ast.Expr]bool{}
	}
	hc.callFuns[ast.Unparen(e)] = true
}

func (hc *hotpathChecker) inCallPos(e ast.Expr) bool { return hc.callFuns[e] }

func (hc *hotpathChecker) report(pos token.Pos, format string, args ...any) {
	hc.pass.Reportf(pos, format, args...)
}
