package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// deterministicPkgs are the simulation packages whose outputs must be
// bit-identical across worker counts, tape on/off, and repeat runs (the
// contract pinned by the PR 1-4 equivalence tests). The determinism
// analyzer applies to these packages and their subpackages.
var deterministicPkgs = []string{
	"m5/internal/sim",
	"m5/internal/experiments",
	"m5/internal/parallel",
	"m5/internal/tiermem",
	"m5/internal/cxl",
	"m5/internal/sketch",
	"m5/internal/tracker",
	"m5/internal/pac",
	"m5/internal/workload",
	"m5/internal/m5",
	"m5/internal/baseline",
	"m5/internal/cache",
	"m5/internal/ifmm",
	"m5/internal/cam",
	"m5/internal/stats",
	"m5/internal/policy",
	"m5/internal/mem",
	"m5/internal/trace",
	"m5/internal/obs",
	"m5/internal/hwcost",
}

// inDeterministicScope reports whether the package path falls under the
// determinism contract.
func inDeterministicScope(path string) bool {
	for _, p := range deterministicPkgs {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// randConstructors are the math/rand(/v2) package-level functions that
// build explicitly-seeded generators — the only sanctioned entry points.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// Determinism forbids, inside the simulation packages: wall-clock reads
// (time.Now / time.Since / time.Until), the package-global math/rand
// generator, and map iteration whose order can escape into results.
// Map-range loops are allowed when their bodies are order-insensitive
// folds, when everything they accumulate is sorted before use, or when
// annotated //m5:orderinvariant with a justification.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "forbid wall-clock time, global math/rand, and order-dependent " +
		"map iteration in the simulation packages",
	Run: runDeterminism,
}

func runDeterminism(pass *Pass) error {
	if !inDeterministicScope(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				checkBannedRef(pass, n)
			case *ast.FuncDecl:
				if n.Body != nil {
					checkMapRanges(pass, n.Body)
				}
			}
			return true
		})
	}
	return nil
}

// checkBannedRef flags wall-clock reads and global math/rand uses.
func checkBannedRef(pass *Pass, sel *ast.SelectorExpr) {
	obj, ok := pass.TypesInfo.Uses[sel.Sel]
	if !ok {
		return
	}
	fn, ok := obj.(*types.Func)
	if ok && fn.Pkg() != nil {
		sig, _ := fn.Type().(*types.Signature)
		if sig != nil && sig.Recv() != nil {
			return // methods (e.g. on a seeded *rand.Rand) are fine
		}
		switch fn.Pkg().Path() {
		case "time":
			switch fn.Name() {
			case "Now", "Since", "Until":
				pass.Reportf(sel.Pos(), "call to time.%s in simulation code: results must not depend on the wall clock; use the simulated clock", fn.Name())
			}
		case "math/rand", "math/rand/v2":
			if !randConstructors[fn.Name()] {
				pass.Reportf(sel.Pos(), "use of package-global %s.%s: seed an explicit generator with rand.New(rand.NewSource(seed))", fn.Pkg().Path(), fn.Name())
			}
		}
	}
}

// checkMapRanges analyzes every map-range loop in the function body.
func checkMapRanges(pass *Pass, body *ast.BlockStmt) {
	// sortedAfter records objects passed to a sort call and the position
	// of that call; an append target is "sorted before use" when a sort
	// of it appears after the loop.
	type sortCall struct {
		obj types.Object
		pos token.Pos
	}
	var sorts []sortCall
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgID, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		if pkgName, ok := pass.TypesInfo.Uses[pkgID].(*types.PkgName); ok {
			p := pkgName.Imported().Path()
			if (p == "sort" || p == "slices") && strings.HasPrefix(sel.Sel.Name, "Sort") ||
				p == "sort" && sortFuncs[sel.Sel.Name] {
				if id, ok := call.Args[0].(*ast.Ident); ok {
					if obj := pass.TypesInfo.Uses[id]; obj != nil {
						sorts = append(sorts, sortCall{obj, call.Pos()})
					}
				}
			}
		}
		return true
	})
	sortedAfter := func(obj types.Object, pos token.Pos) bool {
		for _, s := range sorts {
			if s.obj == obj && s.pos > pos {
				return true
			}
		}
		return false
	}

	ast.Inspect(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pass.TypesInfo.Types[rng.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		if pass.markedAt(rng, markOrderInvariant) {
			return true
		}
		checkMapRangeBody(pass, rng, sortedAfter)
		return true
	})
}

var sortFuncs = map[string]bool{
	"Strings": true, "Ints": true, "Float64s": true,
	"Slice": true, "SliceStable": true, "Stable": true,
}

// checkMapRangeBody classifies every statement in a map-range body as
// order-insensitive or not. Allowed without further proof:
//
//   - compound assignments and ++/-- (commutative integer folds),
//   - plain assignments whose targets are index expressions or
//     variables declared inside the loop,
//   - delete(...) on a map,
//   - nested control flow over the above.
//
// Appends to variables declared outside the loop are allowed only when
// the variable is sorted after the loop in the same function. Anything
// else that lets the iteration order escape — returns, sends, calls
// that see the loop variables, writes of loop-derived values to outer
// variables — is reported.
func checkMapRangeBody(pass *Pass, rng *ast.RangeStmt, sortedAfter func(types.Object, token.Pos) bool) {
	loopObjs := map[types.Object]bool{}
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := pass.TypesInfo.Defs[id]; obj != nil {
				loopObjs[obj] = true
			}
		}
	}
	declaredInside := func(id *ast.Ident) bool {
		obj := pass.TypesInfo.Defs[id]
		if obj == nil {
			obj = pass.TypesInfo.Uses[id]
		}
		if obj == nil {
			return true // unresolved: give the benefit of the doubt
		}
		return obj.Pos() >= rng.Body.Pos() && obj.Pos() <= rng.Body.End() || loopObjs[obj]
	}
	usesLoopVar := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && loopObjs[pass.TypesInfo.Uses[id]] {
				found = true
			}
			return !found
		})
		return found
	}

	checkCall := func(s ast.Stmt, call *ast.CallExpr) {
		for _, a := range call.Args {
			if usesLoopVar(a) {
				pass.Reportf(s.Pos(), "map iteration order escapes through call arguments; sort the keys first or annotate //m5:orderinvariant")
				return
			}
		}
		if fun, ok := call.Fun.(*ast.SelectorExpr); ok && usesLoopVar(fun.X) {
			pass.Reportf(s.Pos(), "map iteration order escapes through a method call on the iterated value; sort the keys first or annotate //m5:orderinvariant")
		}
	}

	var visit func(ast.Stmt)
	visitAll := func(list []ast.Stmt) {
		for _, s := range list {
			visit(s)
		}
	}
	// visitInit also vets the calls of an if/switch init assignment:
	// `if err := f(k); err == nil` runs f in map order just as a bare
	// `f(k)` statement does.
	visitInit := func(s ast.Stmt) {
		if as, ok := s.(*ast.AssignStmt); ok {
			for _, rhs := range as.Rhs {
				if call, ok := rhs.(*ast.CallExpr); ok {
					checkCall(as, call)
				}
			}
		}
		visit(s)
	}
	visit = func(s ast.Stmt) {
		switch s := s.(type) {
		case nil:
		case *ast.AssignStmt:
			if s.Tok != token.ASSIGN && s.Tok != token.DEFINE {
				return // compound assignment: commutative fold
			}
			for i, lhs := range s.Lhs {
				var rhs ast.Expr
				if len(s.Rhs) == len(s.Lhs) {
					rhs = s.Rhs[i]
				} else {
					rhs = s.Rhs[0]
				}
				checkMapRangeAssign(pass, rng, lhs, rhs, s.Tok, declaredInside, usesLoopVar, sortedAfter)
			}
		case *ast.IncDecStmt:
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok {
				if isBuiltinCall(pass, call, "delete") {
					return
				}
				checkCall(s, call)
			}
		case *ast.ReturnStmt:
			pass.Reportf(s.Pos(), "return inside map iteration makes the result depend on map order; sort the keys first or annotate //m5:orderinvariant")
		case *ast.SendStmt:
			pass.Reportf(s.Pos(), "channel send inside map iteration publishes values in map order; sort the keys first or annotate //m5:orderinvariant")
		case *ast.GoStmt, *ast.DeferStmt:
			pass.Reportf(s.Pos(), "go/defer inside map iteration schedules work in map order; sort the keys first or annotate //m5:orderinvariant")
		case *ast.BlockStmt:
			visitAll(s.List)
		case *ast.IfStmt:
			visitInit(s.Init)
			visit(s.Body)
			visit(s.Else)
		case *ast.ForStmt:
			visit(s.Init)
			visit(s.Post)
			visit(s.Body)
		case *ast.RangeStmt:
			visit(s.Body)
		case *ast.SwitchStmt:
			visitInit(s.Init)
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					visitAll(cc.Body)
				}
			}
		case *ast.TypeSwitchStmt:
			visitInit(s.Init)
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					visitAll(cc.Body)
				}
			}
		case *ast.DeclStmt, *ast.BranchStmt, *ast.EmptyStmt, *ast.LabeledStmt:
		default:
			pass.Reportf(s.Pos(), "statement form not provably order-insensitive inside map iteration; sort the keys first or annotate //m5:orderinvariant")
		}
	}
	visitAll(rng.Body.List)
}

// checkMapRangeAssign vets one assignment target inside a map-range
// body.
func checkMapRangeAssign(pass *Pass, rng *ast.RangeStmt, lhs, rhs ast.Expr, tok token.Token,
	declaredInside func(*ast.Ident) bool, usesLoopVar func(ast.Expr) bool,
	sortedAfter func(types.Object, token.Pos) bool) {

	switch l := lhs.(type) {
	case *ast.IndexExpr:
		return // m[k]=v / s[i]=v: keyed writes are order-insensitive
	case *ast.Ident:
		if l.Name == "_" || tok == token.DEFINE || declaredInside(l) {
			return
		}
		obj := pass.TypesInfo.Uses[l]
		// x = append(x, ...) collecting into an outer slice: fine when
		// the slice is sorted after the loop.
		if call, ok := rhs.(*ast.CallExpr); ok && isBuiltinCall(pass, call, "append") {
			if obj != nil && sortedAfter(obj, rng.End()) {
				return
			}
			pass.ReportFix(lhs.Pos(), mapRangeAppendFix(pass, rng, obj, l.Name),
				"append inside map iteration collects values in map order; sort %s after the loop or annotate //m5:orderinvariant", l.Name)
			return
		}
		if usesLoopVar(rhs) {
			pass.Reportf(lhs.Pos(), "assignment of a loop-dependent value to outer variable %s depends on map iteration order (last/first writer wins); sort the keys first or annotate //m5:orderinvariant", l.Name)
		}
	case *ast.SelectorExpr:
		if usesLoopVar(rhs) || usesLoopVar(l.X) {
			pass.Reportf(lhs.Pos(), "assignment through %s inside map iteration depends on map order; sort the keys first or annotate //m5:orderinvariant", types.ExprString(lhs))
		}
	case *ast.StarExpr:
		pass.Reportf(lhs.Pos(), "pointer write inside map iteration depends on map order; sort the keys first or annotate //m5:orderinvariant")
	}
}

// mapRangeAppendFix builds the mechanical fix for an append collecting
// in map order: insert `sort.<Kind>s(x)` right after the loop when the
// element type has a stdlib sorter and the file already imports "sort";
// otherwise fall back to an //m5:orderinvariant annotation stub on the
// range statement, leaving a reviewable TODO.
func mapRangeAppendFix(pass *Pass, rng *ast.RangeStmt, obj types.Object, name string) *SuggestedFix {
	sorter := ""
	if obj != nil {
		if sl, ok := obj.Type().Underlying().(*types.Slice); ok {
			if b, ok := sl.Elem().(*types.Basic); ok {
				switch b.Kind() {
				case types.String:
					sorter = "sort.Strings"
				case types.Int:
					sorter = "sort.Ints"
				case types.Float64:
					sorter = "sort.Float64s"
				}
			}
		}
	}
	if sorter != "" && fileImports(pass, rng.Pos(), "sort") {
		off := pass.lineEndOffset(rng.End())
		return &SuggestedFix{
			Message: "sort the collected slice after the loop",
			Edits: []TextEdit{{
				Filename: pass.Fset.Position(rng.End()).Filename,
				Start:    off,
				End:      off,
				NewText:  "\n" + pass.lineIndent(rng.Pos()) + sorter + "(" + name + ")",
			}},
		}
	}
	return pass.annotationStub(rng.Pos(), markOrderInvariant, "justify order-insensitivity of this loop")
}

// fileImports reports whether the file containing pos imports the path.
func fileImports(pass *Pass, pos token.Pos, path string) bool {
	for _, f := range pass.Files {
		if f.Pos() <= pos && pos <= f.End() {
			for _, imp := range f.Imports {
				if imp.Path.Value == `"`+path+`"` {
					return true
				}
			}
			return false
		}
	}
	return false
}

// isBuiltinCall reports whether the call invokes the named builtin.
func isBuiltinCall(pass *Pass, call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin)
	return isBuiltin
}
