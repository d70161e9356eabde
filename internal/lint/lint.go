// Package lint is raslint: a from-scratch static-analysis pass, built only
// on the standard library's go/ast, go/parser, go/types, and go/importer,
// that machine-checks the invariants the RAS solver's reproducibility
// promise rests on (see DESIGN.md "Static analysis"). Five AST rules, run
// one package at a time:
//
//   - determinism — no wall-clock reads (time.Now/Since/Until) anywhere in
//     the module outside wallClockExempt (internal/clock, which every timing
//     read routes through, and the packages whose job is timing runs), and
//     no global math/rand anywhere.
//   - mapiter — no map iteration in the solve stack whose results are
//     accumulated past the loop in visit order: append without a following
//     sort, channel send, or float compound assignment.
//   - ctxflow — a function that receives a context.Context must not mint a
//     fresh root context and must forward its ctx to every callee that
//     accepts one, so cancellation reaches the whole solve stack.
//   - floatcmp — no ==/!= between floats in the numerical packages outside
//     the designated exact-comparison helpers.
//   - errdrop — no error return silently discarded in statement position.
//
// Intentional exceptions carry a //raslint:allow <rule> <reason> directive
// (see directives.go); each suppression is scoped to a single line and must
// name a real rule and a reason, and a directive that suppresses nothing is
// itself a finding.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one finding.
type Diagnostic struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Rule, d.Message)
}

// An analyzer is one named rule, run over one type-checked package at a
// time.
type analyzer struct {
	name string
	run  func(pkg *Package, report reportFunc)
}

// reportFunc files one finding at pos.
type reportFunc func(pos token.Pos, format string, args ...any)

// analyzers is the rule registry, in documentation order.
var analyzers = []analyzer{
	{"determinism", runDeterminism},
	{"mapiter", runMapiter},
	{"ctxflow", runCtxflow},
	{"floatcmp", runFloatcmp},
	{"errdrop", runErrdrop},
}

// RuleNames lists every rule, including the synthetic "directive" rule that
// reports malformed //raslint: comments.
func RuleNames() []string {
	names := make([]string, 0, len(analyzers)+1)
	for _, a := range analyzers {
		names = append(names, a.name)
	}
	names = append(names, "directive")
	return names
}

// Rule scopes, as import paths of this module. Fixtures pick a scope by the
// import path they are loaded under.
var (
	// solveScope is where mapiter applies.
	solveScope = []string{
		"ras/internal/lp",
		"ras/internal/mip",
		"ras/internal/solver",
		"ras/internal/backend",
		"ras/internal/partition",
		// The broker's snapshots and change stamps feed the solver, so its
		// iteration order reaches solve results.
		"ras/internal/broker",
	}
	// wallClockExempt are the only packages where determinism allows a
	// wall-clock read: the clock seam every other timing read routes
	// through, and the packages whose job is timing runs.
	wallClockExempt = []string{
		"ras/internal/clock",
		"ras/internal/experiments",
		"ras/cmd/rasbench",
		"ras/benchmark",
	}
	// floatScope is where floatcmp applies: the numerical core and the
	// objective plumbing above it.
	floatScope = []string{
		"ras/internal/lp",
		"ras/internal/mip",
		"ras/internal/solver",
		"ras/internal/floats", // home of the helpers below: only their bodies may compare
	}
	// floatcmpHelpers are the designated exact-comparison helpers, both in
	// internal/floats: tiny, documented functions whose whole job is an
	// intentional exact float comparison (sparsity checks on stored-exact
	// zeros).
	floatcmpHelpers = []string{"ExactZero", "ExactEqual"}
)

// Run executes every analyzer over pkgs, which must come from one Loader
// (they share its file set), and returns the surviving findings sorted by
// position. Findings on lines carrying a matching //raslint:allow directive
// are suppressed. Malformed directives, and well-formed ones that suppressed
// nothing (so annotations cannot outlive the finding they excuse), are
// reported under the "directive" rule.
func Run(pkgs []*Package) []Diagnostic {
	if len(pkgs) == 0 {
		return nil
	}
	known := map[string]bool{}
	for _, name := range RuleNames() {
		known[name] = true
	}
	fset := pkgs[0].Fset
	diagAt := func(pos token.Pos, rule, format string, args ...any) Diagnostic {
		p := fset.Position(pos)
		return Diagnostic{File: p.Filename, Line: p.Line, Col: p.Column, Rule: rule, Message: fmt.Sprintf(format, args...)}
	}

	// Collect the directive index and every raw finding, then apply the
	// suppressions, marking each directive that fires.
	var diags []Diagnostic
	dirs := newDirectiveSet()
	for _, pkg := range pkgs {
		parseDirectives(pkg, known, dirs, func(pos token.Pos, rule, format string, args ...any) {
			diags = append(diags, diagAt(pos, rule, format, args...))
		})
	}
	for _, a := range analyzers {
		for _, pkg := range pkgs {
			a.run(pkg, func(pos token.Pos, format string, args ...any) {
				d := diagAt(pos, a.name, format, args...)
				if !dirs.allowed(token.Position{Filename: d.File, Line: d.Line}, d.Rule) {
					diags = append(diags, d)
				}
			})
		}
	}
	for _, ad := range dirs.list {
		if !ad.hit {
			diags = append(diags, diagAt(ad.pos, "directive",
				"stale //raslint:allow %s: it suppresses no %s finding; remove the directive", ad.rule, ad.rule))
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
	return diags
}

// ---- shared type helpers ----

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// isErrorType reports whether t is the built-in error type.
func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// isFloat reports whether t's underlying type is a floating-point basic type.
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// funcObjOf resolves the *types.Func a call expression invokes, nil for
// builtins, conversions, and indirect calls through values.
func funcObjOf(info *types.Info, fun ast.Expr) *types.Func {
	switch f := ast.Unparen(fun).(type) {
	case *ast.Ident:
		obj, _ := info.Uses[f].(*types.Func)
		return obj
	case *ast.SelectorExpr:
		obj, _ := info.Uses[f.Sel].(*types.Func)
		return obj
	}
	return nil
}

// calleeSignature resolves the signature a call invokes, nil when the callee
// is a type conversion or builtin.
func calleeSignature(info *types.Info, call *ast.CallExpr) *types.Signature {
	tv, ok := info.Types[call.Fun]
	if !ok || tv.IsType() || tv.IsBuiltin() {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}
