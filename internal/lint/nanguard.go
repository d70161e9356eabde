package lint

// nanguard: a float division, math.Sqrt, or math.Log in the solve stack
// must have its denominator/argument proven safe on every path to the
// operation. One NaN out of an unguarded Devex ratio poisons pivot
// selection silently — the score comparison that follows is false for
// every NaN, so the bug presents as "solver picks worse pivots at scale",
// not as a crash.
//
// Proof obligations, discharged by the value-dataflow layer (ssa.go,
// interval.go, valuefacts.go):
//
//   - x / d, x /= d (float): d proven nonzero;
//   - math.Sqrt(a): a proven nonnegative;
//   - math.Log(a): a proven positive.
//
// Guards must flow through the recognized seam: the designated
// exact-compare helpers (ExactZero/isZero/ExactEqual/approxEq — the same
// allowlist floatcmp enforces), math.Abs threshold comparisons
// (math.Abs(d) < eps → return/continue), sign comparisons against
// constants, nonzero literals and constants, products of proven factors,
// max/min of proven arguments, and callees whose return-fact summary
// proves every return. A raw `d != 0` comparison is deliberately NOT
// recognized: it is itself a floatcmp finding, and routing the guard
// through a helper is the fix for both rules at once.
//
// Documented false negatives: guards carried through struct fields, map
// values, or captured variables (only address-free locals and parameters
// are SSA-tracked), and correlated guards (`if enter >= 0 { ... alpha is
// nonzero because enter was set }`) — those carry a reasoned
// //raslint:allow nanguard directive instead.

import (
	"go/ast"
	"go/token"
	"go/types"
)

func (c *Config) nanguardScope() []string {
	if c.NanguardScope != nil {
		return c.NanguardScope
	}
	return defaultSolveScope
}

func runNanguard(cfg *Config, pkgs []*Package, mf *moduleFacts, report func(pkg *Package, pos token.Pos, format string, args ...any)) {
	scope := cfg.nanguardScope()
	va := mf.valueAnalysisFor(cfg)
	helpers := cfg.floatcmpHelpers()
	for _, fn := range mf.order {
		node := mf.graph.nodes[fn]
		if node == nil || !inScope(scope, node.pkg.Path) {
			continue
		}
		if helpers[fn.Name()] {
			// The designated exact-compare helpers are the guard seam
			// itself; their own bodies are out of scope (mirrors floatcmp).
			continue
		}
		f := va.ssaOf(fn)
		if f == nil {
			continue
		}
		ev := va.evaluatorFor(fn)
		checkNanguardFunc(node.pkg, f, ev, report)
	}
}

func checkNanguardFunc(pkg *Package, f *ssaFunc, ev *evaluator, report func(pkg *Package, pos token.Pos, format string, args ...any)) {
	info := pkg.Info
	for _, b := range f.rpo {
		for _, st := range b.stmts {
			// Op-assign division: x /= d.
			if as, ok := st.(*ast.AssignStmt); ok && as.Tok == token.QUO_ASSIGN {
				if tv, ok := info.Types[as.Lhs[0]]; ok && tv.Type != nil && isFloat(tv.Type) {
					if !ev.provenNonzero(as.Rhs[0], b, 0) {
						report(pkg, as.Rhs[0].Pos(),
							"float division by %s: denominator is not proven nonzero on every path; guard through %s or a math.Abs threshold",
							types.ExprString(as.Rhs[0]), guardHint())
					}
				}
			}
			for _, e := range shallowExprs(st) {
				checkNanguardExpr(pkg, e, b, ev, report)
			}
		}
	}
}

func checkNanguardExpr(pkg *Package, root ast.Expr, b *cfgBlock, ev *evaluator, report func(pkg *Package, pos token.Pos, format string, args ...any)) {
	if root == nil {
		return
	}
	info := pkg.Info
	ast.Inspect(root, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.BinaryExpr:
			if x.Op != token.QUO {
				return true
			}
			tv, ok := info.Types[x]
			if !ok || tv.Type == nil || !isFloat(tv.Type) {
				return true
			}
			if tv.Value != nil {
				return true // constant-folded: the checker already proved it
			}
			if !ev.provenNonzero(x.Y, b, 0) {
				report(pkg, x.Y.Pos(),
					"float division by %s: denominator is not proven nonzero on every path; guard through %s or a math.Abs threshold",
					types.ExprString(x.Y), guardHint())
			}
		case *ast.CallExpr:
			name, arg := mathUnaryCall(info, x)
			switch name {
			case "Sqrt":
				if !ev.provenNonNeg(arg, b, 0) {
					report(pkg, arg.Pos(),
						"math.Sqrt of %s: argument is not proven nonnegative on every path; a negative argument yields NaN",
						types.ExprString(arg))
				}
			case "Log":
				if !ev.provenPositive(arg, b, 0) {
					report(pkg, arg.Pos(),
						"math.Log of %s: argument is not proven positive on every path; zero yields -Inf and negative yields NaN",
						types.ExprString(arg))
				}
			}
		}
		return true
	})
}

// guardHint names the designated guard helpers in diagnostics.
func guardHint() string {
	return "a designated exact-compare helper (ExactZero/isZero)"
}
