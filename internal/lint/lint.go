// Package lint is raslint: a from-scratch static-analysis pass, built only
// on the standard library's go/ast, go/parser, go/types, and go/importer,
// that machine-checks the invariants the RAS solver's reproducibility
// promise rests on (see DESIGN.md "Static analysis"). Eight rules.
//
// AST rules, one package at a time:
//
//   - determinism — no wall-clock reads (time.Now/Since/Until) in the solve
//     stack, which must route timing through internal/clock, and no global
//     math/rand anywhere in the module.
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
// Call-graph rule, once over the module (callgraph.go):
//
//   - calldeterminism — no solve entry point transitively reaches a
//     wall-clock read or global math/rand outside internal/clock.
//
// Concurrency rules, one function body at a time:
//
//   - lockcheck — a mutex acquired on some path is released on every path
//     out (or by a defer), in the mode it was acquired in: a may-held
//     dataflow over the function's control-flow graph (cfg.go).
//   - leakcheck — a go-launched function in the solve stack has an exit that
//     is not an unguarded channel operation.
//
// Intentional exceptions carry a //raslint:allow <rule> <reason> directive
// (see directives.go); each suppression is scoped to a single line and must
// name a real rule and a reason.
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

// An analyzer is one named rule. Exactly one of run and runModule is set:
// run sees one type-checked package at a time; runModule sees the whole
// loaded set once, for what cannot be decided package by package.
type analyzer struct {
	name      string
	doc       string
	run       func(pkg *Package, report reportFunc)
	runModule func(cfg *Config, pkgs []*Package, report reportFunc)
}

// reportFunc files one finding at pos.
type reportFunc func(pos token.Pos, format string, args ...any)

// analyzers is the rule registry, in documentation order.
var analyzers = []*analyzer{
	{
		name: "determinism",
		doc:  "forbid wall-clock reads in solver packages and global math/rand module-wide",
		run:  runDeterminism,
	},
	{
		name: "mapiter",
		doc:  "flag map iterations that append, send or float-accumulate into state outliving the loop",
		run:  runMapiter,
	},
	{
		name: "ctxflow",
		doc:  "functions receiving a ctx must forward it and must not mint root contexts",
		run:  runCtxflow,
	},
	{
		name: "floatcmp",
		doc:  "forbid ==/!= on floats in numerical packages outside exact-comparison helpers",
		run:  runFloatcmp,
	},
	{
		name: "errdrop",
		doc:  "forbid discarding error returns in statement position",
		run:  runErrdrop,
	},
	{
		name:      "calldeterminism",
		doc:       "flag solve-entry-point call paths that transitively reach time.Now or global math/rand outside internal/clock",
		runModule: runCalldeterminism,
	},
	{
		name: "lockcheck",
		doc:  "a mutex acquired on some CFG path must be released on every path out (or deferred), in the mode it was acquired",
		run:  runLockcheck,
	},
	{
		name: "leakcheck",
		doc:  "flag go-launched functions whose only exits are unguarded channel operations",
		run:  runLeakcheck,
	},
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

// RuleDocs maps rule name → one-line description.
func RuleDocs() map[string]string {
	docs := map[string]string{"directive": "malformed or stale //raslint: directives"}
	for _, a := range analyzers {
		docs[a.name] = a.doc
	}
	return docs
}

// Config selects rules. The zero value runs every rule.
type Config struct {
	// Disabled turns rules off by name. The "directive" rule cannot be
	// disabled: a malformed suppression is always an error.
	Disabled map[string]bool
	// Stale, when set, reports every well-formed //raslint:allow directive
	// that suppressed nothing in this run, under the "directive" rule, so
	// annotations cannot outlive the finding they excuse.
	Stale bool
	// CalldeterminismEntries names the solve entry points reachability
	// starts from, as "pkgpath.Func" or "pkgpath.Type.Method" (interface
	// methods expand to every module implementation). Nil selects the
	// repository's Solve seams (see defaultSolveEntryPoints).
	CalldeterminismEntries []string
}

// Rule scopes, as import paths of this module. Fixtures pick a scope by the
// import path they are loaded under.
var (
	// solveScope is where determinism (wall clock) and mapiter apply.
	solveScope = []string{
		"ras/internal/lp",
		"ras/internal/mip",
		"ras/internal/solver",
		"ras/internal/backend",
		"ras/internal/partition",
		// The broker's change journal feeds the solver's incremental model
		// cache, so its iteration order reaches solve results.
		"ras/internal/broker",
	}
	// floatScope is where floatcmp applies: the numerical core and the
	// objective plumbing above it.
	floatScope = []string{
		"ras/internal/lp",
		"ras/internal/mip",
		"ras/internal/solver",
		"ras/internal/floats", // home of the helpers below: only their bodies may compare
	}
	// floatcmpHelpers are the designated exact-comparison helper names:
	// tiny, documented functions whose whole job is an intentional exact
	// float comparison (sparsity checks on stored-exact zeros).
	floatcmpHelpers = []string{"ExactZero", "ExactEqual", "approxEq", "isZero"}
)

// Run executes every enabled analyzer over pkgs, which must come from one
// Loader (they share its file set), and returns the surviving findings
// sorted by position. Findings on lines carrying a matching //raslint:allow
// directive are suppressed; malformed directives are reported under the
// "directive" rule, and — with Config.Stale — so is every well-formed
// directive that suppressed nothing.
func Run(cfg *Config, pkgs []*Package) []Diagnostic {
	if len(pkgs) == 0 {
		return nil
	}
	if cfg == nil {
		cfg = &Config{}
	}
	known := map[string]bool{}
	for _, name := range RuleNames() {
		known[name] = true
	}
	fset := pkgs[0].Fset

	// Phase 1: collect raw findings from every analyzer and the directive
	// index of every package. Filtering is global because module analyzers
	// report across package boundaries.
	diagAt := func(pos token.Pos, rule, format string, args ...any) Diagnostic {
		p := fset.Position(pos)
		return Diagnostic{File: p.Filename, Line: p.Line, Col: p.Column, Rule: rule, Message: fmt.Sprintf(format, args...)}
	}
	var raw []Diagnostic
	collect := func(rule string) reportFunc {
		return func(pos token.Pos, format string, args ...any) {
			raw = append(raw, diagAt(pos, rule, format, args...))
		}
	}
	dirs := newDirectiveSet()
	for _, pkg := range pkgs {
		parseDirectives(pkg, known, dirs, func(pos token.Pos, rule, format string, args ...any) {
			collect(rule)(pos, format, args...)
		})
	}
	for _, a := range analyzers {
		if cfg.Disabled[a.name] {
			continue
		}
		if a.runModule != nil {
			a.runModule(cfg, pkgs, collect(a.name))
			continue
		}
		for _, pkg := range pkgs {
			a.run(pkg, collect(a.name))
		}
	}

	// Phase 2: apply suppressions, marking each directive that fires.
	var diags []Diagnostic
	for _, d := range raw {
		if d.Rule != "directive" && dirs.allowed(token.Position{Filename: d.File, Line: d.Line}, d.Rule) {
			continue
		}
		diags = append(diags, d)
	}

	// Phase 3: stale directives. A directive for a rule that was disabled
	// this run proves nothing about staleness and is skipped.
	if cfg.Stale {
		for _, ad := range dirs.list {
			if ad.hit || cfg.Disabled[ad.rule] {
				continue
			}
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
