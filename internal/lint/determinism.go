package lint

// determinism: the solve stack's reproducibility rests on never reading
// ambient nondeterministic state. Two checks:
//
//  1. Wall clock: time.Now, time.Since and time.Until are forbidden in every
//     package of the module outside wallClockExempt; timing goes through the
//     internal/clock seam, which tests can override. Module-wide, because a
//     read in any package the solve stack calls (topology, reservation, the
//     façade) leaks into a round as surely as one in the solver itself.
//  2. Global RNG: the package-level math/rand functions draw from a shared,
//     unseeded global source, so any use makes a run unrepeatable. They are
//     forbidden module-wide — every random stream must come from an
//     explicitly seeded rand.New(rand.NewSource(seed)).

import (
	"go/ast"
	"go/types"
	"slices"
)

// forbiddenTimeFuncs are the package time functions that read the wall
// clock.
var forbiddenTimeFuncs = map[string]bool{
	"Now":   true,
	"Since": true,
	"Until": true,
}

// globalRandFuncs are the math/rand (and math/rand/v2) package-level
// functions that consume the shared global source. Constructors (New,
// NewSource, NewZipf, NewPCG, NewChaCha8) are fine: they are how seeded,
// deterministic streams get made.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Int32": true, "Int32N": true,
	"Int64": true, "Int64N": true, "IntN": true, "N": true,
	"Uint": true, "Uint32": true, "Uint32N": true, "Uint64": true,
	"Uint64N": true, "UintN": true, "Float32": true, "Float64": true,
	"NormFloat64": true, "ExpFloat64": true, "Perm": true,
	"Shuffle": true, "Read": true, "Seed": true,
}

func runDeterminism(pkg *Package, report reportFunc) {
	timeExempt := slices.Contains(wallClockExempt, pkg.Path)
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
			if !ok || obj.Pkg() == nil {
				return true
			}
			if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
				return true // methods (e.g. (*rand.Rand).Intn) are fine
			}
			switch obj.Pkg().Path() {
			case "time":
				if !timeExempt && forbiddenTimeFuncs[obj.Name()] {
					report(sel.Pos(), "time.%s reads the wall clock; use internal/clock (injectable in tests) instead", obj.Name())
				}
			case "math/rand", "math/rand/v2":
				if globalRandFuncs[obj.Name()] {
					report(sel.Pos(), "%s.%s draws from the global rand source; use a seeded rand.New(rand.NewSource(seed))", obj.Pkg().Name(), obj.Name())
				}
			}
			return true
		})
	}
}
