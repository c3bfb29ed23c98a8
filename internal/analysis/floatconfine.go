package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Floatconfine keeps floating point out of the byte-identity metric
// paths. Every headline number the harnesses report is an integer
// recurrence (picosecond clocks, hit/miss counters, migration tallies)
// precisely so that worker count, batch size, and merge order cannot
// perturb results; one float accumulation on such a path reintroduces
// non-associativity and byte identity dies quietly. Float arithmetic
// is therefore confined to internal/stats and the sampling-estimate
// layer. Inside the confined packages the analyzer flags float binary
// arithmetic (+ - * /), float compound assignment, and math.* calls;
// conversions, comparisons, and plain copies stay legal (reservoirs
// record float64 samples — they may carry values, not fold them).
//
// Escapes: //m5:floatok <why> on a reviewed line (setup-time sizing,
// report-side derivation after the deterministic fold), and
// //m5:floatestimate <why> anywhere in a file that IS the estimate
// layer (sim/sampling.go), which exempts the whole file.
var Floatconfine = &Analyzer{
	Name: "floatconfine",
	Doc:  "no float arithmetic or math.* in byte-identity metric packages",
	Run:  runFloatconfine,
}

// floatScopePkgs are the byte-identity metric paths: the sim engines
// and every accounting layer under them. internal/stats and the
// experiment report layer are deliberately outside.
var floatScopePkgs = []string{
	"m5/internal/sim",
	"m5/internal/cache",
	"m5/internal/cxl",
	"m5/internal/mem",
	"m5/internal/obs",
	"m5/internal/tiermem",
}

// floatMathAllowed are math functions that are bit-exact reinterpret
// casts, not arithmetic.
var floatMathAllowed = map[string]bool{
	"Float32bits": true, "Float32frombits": true,
	"Float64bits": true, "Float64frombits": true,
}

func inFloatScope(path string) bool {
	for _, p := range floatScopePkgs {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

func runFloatconfine(pass *Pass) error {
	if !inFloatScope(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		if why, ok := fileMarker(f, markFloatEstimate); ok {
			if why == "" {
				pass.Reportf(f.Pos(), "//m5:floatestimate needs a justification: //m5:floatestimate <why>")
			}
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				pass.checkFloatBinary(n)
			case *ast.AssignStmt:
				pass.checkFloatCompound(n)
			case *ast.CallExpr:
				pass.checkMathCall(n)
			}
			return true
		})
	}
	return nil
}

// isFloat reports whether the expression has floating-point type.
func (p *Pass) isFloat(e ast.Expr) bool {
	tv, ok := p.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isConstExpr reports whether the whole expression is a typed or
// untyped constant.
func isConstExpr(p *Pass, e ast.Expr) bool {
	tv, ok := p.TypesInfo.Types[e]
	return ok && tv.Value != nil
}

// floatOpExempt reports whether the node's line carries //m5:floatok,
// validating the justification.
func (p *Pass) floatOpExempt(n ast.Node) bool {
	why, ok := p.markerAt(n, markFloatOK)
	if !ok {
		return false
	}
	if why == "" {
		p.Reportf(n.Pos(), "//m5:floatok needs a justification: //m5:floatok <why>")
	}
	return true
}

func (p *Pass) checkFloatBinary(be *ast.BinaryExpr) {
	switch be.Op {
	case token.ADD, token.SUB, token.MUL, token.QUO:
	default:
		return
	}
	if isConstExpr(p, be) || !p.isFloat(be) {
		return
	}
	if p.floatOpExempt(be) {
		return
	}
	p.Reportf(be.Pos(), "float %s in byte-identity package %s; float folds are merge-order sensitive — keep the metric integral, move the estimate into internal/stats or the sampling layer, or annotate //m5:floatok <why>", be.Op, p.Pkg.Path())
}

func (p *Pass) checkFloatCompound(as *ast.AssignStmt) {
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
	default:
		return
	}
	if len(as.Lhs) != 1 || !p.isFloat(as.Lhs[0]) {
		return
	}
	if p.floatOpExempt(as) {
		return
	}
	p.Reportf(as.Pos(), "float %s in byte-identity package %s; float folds are merge-order sensitive — keep the metric integral, move the estimate into internal/stats or the sampling layer, or annotate //m5:floatok <why>", as.Tok, p.Pkg.Path())
}

func (p *Pass) checkMathCall(call *ast.CallExpr) {
	se, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	id, ok := se.X.(*ast.Ident)
	if !ok {
		return
	}
	pn, ok := p.TypesInfo.Uses[id].(*types.PkgName)
	if !ok || pn.Imported().Path() != "math" {
		return
	}
	if _, isFunc := p.TypesInfo.Uses[se.Sel].(*types.Func); !isFunc {
		return // math.MaxUint64 and friends are exact constants
	}
	if floatMathAllowed[se.Sel.Name] {
		return
	}
	if p.floatOpExempt(call) {
		return
	}
	p.Reportf(call.Pos(), "math.%s call in byte-identity package %s; move the computation into internal/stats or the sampling layer, or annotate //m5:floatok <why>", se.Sel.Name, p.Pkg.Path())
}
