package lint

// floatcmp: in the numerical core (the simplex and branch-and-bound code),
// == and != between floating-point values are almost always a bug — values
// that are mathematically equal differ in the last ulp after different
// pivot orders, which is exactly the kind of run-to-run divergence the
// determinism work exists to prevent. Comparisons belong behind tolerance
// checks (math.Abs(a-b) <= tol) or, for the sparsity convention "an entry
// stored as exact zero is absent", inside one of the designated
// exact-comparison helpers (floatcmpHelpers), whose bodies are the
// single documented place the convention lives.

import (
	"go/ast"
	"go/token"
	"slices"
)

func runFloatcmp(pkg *Package, report reportFunc) {
	if !slices.Contains(floatScope, pkg.Path) {
		return
	}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if slices.Contains(floatcmpHelpers, fd.Name.Name) {
				continue // designated exact-comparison helper
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				be, ok := n.(*ast.BinaryExpr)
				if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
					return true
				}
				// Either side float suffices: an untyped constant operand
				// (x == 0) may be recorded under its default type, but the
				// comparison is still a float comparison.
				xt, xok := pkg.Info.Types[be.X]
				yt, yok := pkg.Info.Types[be.Y]
				if !xok || !yok || (!isFloat(xt.Type) && !isFloat(yt.Type)) {
					return true
				}
				report(be.OpPos, "float %s float compares exactly; use a tolerance or a designated helper (%v)", be.Op, floatcmpHelpers)
				return true
			})
		}
	}
}
