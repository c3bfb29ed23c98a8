package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
)

// obsPkgPath is the observability plane whose API the analyzer guards.
const obsPkgPath = "m5/internal/obs"

// metricNameRE is the documented scope.metric grammar: dot-separated
// lowercase segments, each [a-z][a-z0-9_]*. Registration through a
// scoped registry passes one or more segments; Scope takes the same
// shape ("chan.ddr" is a legal scope).
var metricNameRE = regexp.MustCompile(`^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)*$`)

// obsNameMethods are the *obs.Registry methods whose first argument is
// a metric or scope name.
var obsNameMethods = map[string]bool{
	"Counter": true, "Gauge": true, "Histogram": true, "Scope": true,
}

// obsNilSafeTypes are the obs types whose pointer methods promise "nil
// means disabled": every exported pointer-receiver method must open
// with a nil-receiver guard so an uninstrumented run costs one branch.
var obsNilSafeTypes = map[string]bool{
	"Registry": true, "Counter": true, "Gauge": true,
	"Histogram": true, "EventLog": true,
}

// ObsScope enforces the observability plane's two contracts: metric and
// scope names are string literals in the scope.metric grammar (so the
// README metric table, snapshots, and dashboards can be grepped for
// every name that can ever exist), and the obs package's own handle
// methods keep the nil-safe pattern the disabled plane's zero-cost
// guarantee rests on.
var ObsScope = &Analyzer{
	Name: "obsscope",
	Doc: "require literal scope.metric names at obs registration sites " +
		"and the nil-receiver guard on obs handle methods",
	Run: runObsScope,
}

func runObsScope(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				checkObsName(pass, call)
			}
			return true
		})
	}
	if pass.Pkg.Path() == obsPkgPath {
		checkNilSafety(pass)
	}
	return nil
}

// checkObsName vets one call site against the name grammar.
func checkObsName(pass *Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !obsNameMethods[sel.Sel.Name] || len(call.Args) == 0 {
		return
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != obsPkgPath {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return
	}
	arg := call.Args[0]
	lit, ok := arg.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		pass.Reportf(arg.Pos(), "obs %s name must be a string literal (grepable metric vocabulary), not %s", sel.Sel.Name, types.ExprString(arg))
		return
	}
	name := lit.Value[1 : len(lit.Value)-1] // unquote; names never need escapes
	if !metricNameRE.MatchString(name) {
		pass.Reportf(arg.Pos(), "obs %s name %q does not match the scope.metric grammar [a-z][a-z0-9_]* per dot-separated segment", sel.Sel.Name, name)
	}
}

// checkNilSafety requires every exported pointer-receiver method on the
// nil-safe obs types to open with `if recv == nil { ... return }`.
func checkNilSafety(pass *Pass) {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || len(fd.Recv.List) == 0 || fd.Body == nil {
				continue
			}
			if !fd.Name.IsExported() {
				continue
			}
			star, ok := fd.Recv.List[0].Type.(*ast.StarExpr)
			if !ok {
				continue
			}
			id, ok := star.X.(*ast.Ident)
			if !ok || !obsNilSafeTypes[id.Name] {
				continue
			}
			var recvName string
			if names := fd.Recv.List[0].Names; len(names) > 0 {
				recvName = names[0].Name
			}
			if recvName == "" || recvName == "_" {
				pass.Reportf(fd.Pos(), "obs method (*%s).%s has no named receiver to nil-check; the disabled plane requires `if recv == nil` first", id.Name, fd.Name.Name)
				continue
			}
			if !opensWithNilGuard(fd.Body, recvName) {
				pass.ReportFix(fd.Pos(), nilGuardFix(pass, fd, recvName),
					"obs method (*%s).%s must begin with `if %s == nil { return ... }`: nil handles are the disabled observability plane", id.Name, fd.Name.Name, recvName)
			}
		}
	}
}

// nilGuardFix builds the mechanical fix inserting the missing guard as
// the body's first statement. It returns nil (finding only, no fix)
// when some result type has no simple zero-value spelling.
func nilGuardFix(pass *Pass, fd *ast.FuncDecl, recvName string) *SuggestedFix {
	fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok {
		return nil
	}
	results := fn.Type().(*types.Signature).Results()
	ret := "return"
	if results.Len() > 0 {
		zeros := make([]string, 0, results.Len())
		for i := 0; i < results.Len(); i++ {
			z, ok := zeroValueExpr(results.At(i).Type())
			if !ok {
				return nil
			}
			zeros = append(zeros, z)
		}
		ret = "return " + joinComma(zeros)
	}
	off := pass.Fset.Position(fd.Body.Lbrace).Offset + 1
	return &SuggestedFix{
		Message: "insert the nil-receiver guard",
		Edits: []TextEdit{{
			Filename: pass.Fset.Position(fd.Body.Lbrace).Filename,
			Start:    off,
			End:      off,
			NewText:  "\n\tif " + recvName + " == nil {\n\t\t" + ret + "\n\t}",
		}},
	}
}

// zeroValueExpr spells the zero value of a type, when it has a simple
// literal spelling.
func zeroValueExpr(t types.Type) (string, bool) {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		switch {
		case u.Info()&types.IsNumeric != 0:
			return "0", true
		case u.Info()&types.IsString != 0:
			return `""`, true
		case u.Info()&types.IsBoolean != 0:
			return "false", true
		}
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return "nil", true
	}
	return "", false
}

func joinComma(parts []string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += ", "
		}
		out += p
	}
	return out
}

// opensWithNilGuard reports whether the body's first statement is an if
// whose condition short-circuits on `recv == nil` (possibly as the
// leftmost operand of an || chain) and whose body returns.
func opensWithNilGuard(body *ast.BlockStmt, recv string) bool {
	if len(body.List) == 0 {
		return false
	}
	ifs, ok := body.List[0].(*ast.IfStmt)
	if !ok || ifs.Init != nil {
		return false
	}
	cond := ifs.Cond
	for {
		be, ok := cond.(*ast.BinaryExpr)
		if !ok {
			return false
		}
		if be.Op == token.LOR {
			cond = be.X
			continue
		}
		if be.Op != token.EQL {
			return false
		}
		if !isNilCheck(be, recv) {
			return false
		}
		break
	}
	if len(ifs.Body.List) == 0 {
		return false
	}
	_, ok = ifs.Body.List[len(ifs.Body.List)-1].(*ast.ReturnStmt)
	return ok
}

// isNilCheck matches `recv == nil` or `nil == recv`.
func isNilCheck(be *ast.BinaryExpr, recv string) bool {
	isRecv := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && id.Name == recv
	}
	isNil := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && id.Name == "nil"
	}
	return isRecv(be.X) && isNil(be.Y) || isNil(be.X) && isRecv(be.Y)
}
