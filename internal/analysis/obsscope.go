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

// ObsScope requires metric and scope names to be string literals in the
// scope.metric grammar, so the README metric table, snapshots, and
// dashboards can be grepped for every name that can ever exist.
var ObsScope = &Analyzer{
	Name: "obsscope",
	Doc:  "require literal scope.metric names at obs registration sites",
	Run:  runObsScope,
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
