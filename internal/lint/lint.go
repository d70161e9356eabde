// Package lint is raslint: a from-scratch static-analysis pass, built only
// on the standard library's go/ast, go/parser, go/types, and go/importer,
// that machine-checks the invariants the RAS solver's reproducibility
// promise rests on (see DESIGN.md "Static analysis"):
//
//   - determinism — no wall-clock reads (time.Now/time.Since) in solver
//     packages, which must route timing through internal/clock, and no
//     global math/rand anywhere in the module.
//   - mapiter — no map iteration whose results are accumulated (append/send)
//     past the loop without a following sort: the classic Go
//     nondeterminism leak.
//   - ctxflow — a function that receives a context.Context must not mint a
//     fresh root context and must forward its ctx to every callee that
//     accepts one, so cancellation reaches the whole solve stack.
//   - floatcmp — no ==/!= between floats in the numerical packages outside
//     the designated exact-comparison helpers.
//   - errdrop — no error return silently discarded in statement position.
//
// Intentional exceptions carry a //raslint:allow <rule> <reason> directive
// (see directives.go); each suppression is scoped to a single line and must
// name a real rule and a reason.
package lint

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Diagnostic is one finding.
type Diagnostic struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
	// Fingerprint is a stable identity for the finding — a short hash of
	// rule, file, line, and message — so CI baselines and suppression
	// ratchets can track a finding across runs without string-matching the
	// whole diagnostic. Column is deliberately excluded: gofmt shifts
	// columns far more often than it shifts what a finding is about.
	Fingerprint string `json:"fingerprint,omitempty"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Rule, d.Message)
}

// An analyzer is one named rule over a type-checked package.
type analyzer struct {
	name string
	doc  string
	run  func(cfg *Config, pkg *Package, report reportFunc)
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
		doc:  "flag map iterations accumulating into escaping state without a following sort",
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
		name: "lockcheck",
		doc:  "a mutex acquired on some CFG path must be released on every path out (or deferred); no mode mismatches or lock copies",
		run:  runLockcheck,
	},
	{
		name: "leakcheck",
		doc:  "flag go-launched functions whose only exits are unguarded channel operations",
		run:  runLeakcheck,
	},
	{
		name: "sharedwrite",
		doc:  "captured or package-level state written from a go-launched function must be lock-held, atomic, or confined",
		run:  runSharedwrite,
	},
}

// moduleAnalyzers run once over the whole loaded package set instead of
// package by package: call-graph reachability and effect summaries cannot
// be decided locally. They share one moduleFacts (call graph + post-fixpoint
// write-effect summaries, see summary.go) built once per run.
type moduleAnalyzer struct {
	name string
	doc  string
	run  func(cfg *Config, pkgs []*Package, mf *moduleFacts, report func(pkg *Package, pos token.Pos, format string, args ...any))
}

var moduleAnalyzersList = []*moduleAnalyzer{
	{
		name: "calldeterminism",
		doc:  "flag solve-entry-point call paths that transitively reach time.Now or global math/rand outside internal/clock",
		run:  runCalldeterminism,
	},
	{
		name: "globalwrite",
		doc:  "nothing reachable from a solve entry point may write package-level state (internal/metrics atomics excepted)",
		run:  runGlobalwrite,
	},
	{
		name: "aliascheck",
		doc:  "workspace and incumbent buffers must not escape their owning frame by aliasing (store, goroutine capture, or retaining callee)",
		run:  runAliascheck,
	},
	{
		name: "nanguard",
		doc:  "float divisions, math.Sqrt, and math.Log in the solve stack must have their operand proven safe on every path",
		run:  runNanguard,
	},
	{
		name: "deadstore",
		doc:  "flag writes to locals and workspace-owned buffer elements never read before overwrite or return",
		run:  runDeadstore,
	},
	{
		name: "boundsproof",
		doc:  "computed slice indexes in hot loops must be proven within [0, len) or carry a reasoned allow",
		run:  runBoundsproof,
	},
}

// RuleNames lists every rule, including the synthetic "directive" rule that
// reports malformed //raslint: comments.
func RuleNames() []string {
	names := make([]string, 0, len(analyzers)+len(moduleAnalyzersList)+1)
	for _, a := range analyzers {
		names = append(names, a.name)
	}
	for _, a := range moduleAnalyzersList {
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
	for _, a := range moduleAnalyzersList {
		docs[a.name] = a.doc
	}
	return docs
}

// Config selects rules and scopes. The zero value runs every rule with the
// repository's default scopes.
type Config struct {
	// Disabled turns rules off by name. The "directive" rule cannot be
	// disabled: a malformed suppression is always an error.
	Disabled map[string]bool

	// DeterminismTimeScope lists the import paths where wall-clock reads are
	// forbidden. Nil selects the solve stack: internal/lp, internal/mip,
	// internal/localsearch, internal/solver, internal/backend.
	DeterminismTimeScope []string
	// MapiterScope lists the import paths checked by mapiter. Nil selects
	// the same solve-stack packages.
	MapiterScope []string
	// FloatcmpScope lists the import paths checked by floatcmp. Nil selects
	// the numerical core and the objective plumbing above it: internal/lp,
	// internal/mip, internal/solver, internal/localsearch.
	FloatcmpScope []string
	// FloatcmpHelpers names the functions allowed to compare floats exactly
	// (the designated tolerance/exact-zero helpers). Nil selects
	// DefaultFloatcmpHelpers.
	FloatcmpHelpers []string

	// LeakcheckScope lists the import paths checked by leakcheck. Nil
	// selects the goroutine-spawning solve packages: internal/mip,
	// internal/localsearch, internal/backend.
	LeakcheckScope []string
	// CalldeterminismEntries names the solve entry points reachability
	// starts from, as "pkgpath.Func" or "pkgpath.Type.Method" (interface
	// methods expand to every module implementation). Nil selects the
	// repository's Solve seams (see defaultSolveEntryPoints).
	CalldeterminismEntries []string
	// GlobalwriteEntries names the entry points the globalwrite rule walks
	// from, same syntax as CalldeterminismEntries. Nil selects the same
	// Solve seams.
	GlobalwriteEntries []string
	// AliascheckScope lists the import paths where aliascheck reports.
	// Summaries are still computed module-wide (callers outside the scope
	// propagate facts into it); only the reporting is scoped. Nil selects
	// the solve stack.
	AliascheckScope []string
	// SharedwriteScope lists the import paths checked by sharedwrite. Nil
	// selects the solve stack.
	SharedwriteScope []string
	// NanguardScope lists the import paths where nanguard reports. The
	// value-dataflow facts are still computed module-wide. Nil selects the
	// solve stack.
	NanguardScope []string
	// DeadstoreScope lists the import paths where deadstore reports. Nil
	// selects the solve stack.
	DeadstoreScope []string
	// BoundsproofScope lists the import paths where boundsproof reports.
	// Nil selects the solve stack.
	BoundsproofScope []string
	// Stale, when set, reports every well-formed //raslint:allow directive
	// that suppressed nothing in this run, under the "directive" rule, so
	// annotations cannot outlive the finding they excuse.
	Stale bool
	// Workers caps the per-package analyzer concurrency. Zero or negative
	// selects GOMAXPROCS. Output is byte-identical at any setting: workers
	// fill private slices merged in package order.
	Workers int
}

// Default scopes, as import paths of this module.
var (
	defaultSolveScope = []string{
		"ras/internal/lp",
		"ras/internal/mip",
		"ras/internal/localsearch",
		"ras/internal/solver",
		"ras/internal/backend",
		"ras/internal/partition",
		// The broker's change journal feeds the solver's incremental model
		// cache: retained snapshot/delta slices cross the SolveWith round
		// boundary, so aliasing there is solve-correctness, not just style.
		"ras/internal/broker",
	}
	defaultFloatScope = []string{
		"ras/internal/lp",
		"ras/internal/mip",
		"ras/internal/solver",
		"ras/internal/localsearch",
		"ras/internal/floats", // home of the helpers below: only their bodies may compare
	}
	// DefaultFloatcmpHelpers are the designated exact-comparison helper
	// names: tiny, documented functions whose whole job is an intentional
	// exact float comparison (sparsity checks on stored-exact zeros).
	DefaultFloatcmpHelpers = []string{"ExactZero", "ExactEqual", "approxEq", "isZero"}
)

func (c *Config) timeScope() []string {
	if c.DeterminismTimeScope != nil {
		return c.DeterminismTimeScope
	}
	return defaultSolveScope
}

func (c *Config) mapiterScope() []string {
	if c.MapiterScope != nil {
		return c.MapiterScope
	}
	return defaultSolveScope
}

func (c *Config) floatcmpScope() []string {
	if c.FloatcmpScope != nil {
		return c.FloatcmpScope
	}
	return defaultFloatScope
}

func (c *Config) floatcmpHelpers() map[string]bool {
	names := c.FloatcmpHelpers
	if names == nil {
		names = DefaultFloatcmpHelpers
	}
	set := make(map[string]bool, len(names))
	for _, n := range names {
		set[n] = true
	}
	return set
}

func inScope(scope []string, path string) bool {
	for _, s := range scope {
		if path == s {
			return true
		}
	}
	return false
}

// RuleTiming is the accumulated analysis time of one rule across every
// package it ran over. For per-package analyzers running concurrently the
// nanos are summed CPU-side wall clock per package, so they can exceed the
// run's total elapsed time.
type RuleTiming struct {
	Rule  string `json:"rule"`
	Nanos int64  `json:"nanos"`
}

// RunStats reports where a run's analysis time went. Timings never reach
// stdout in the driver: the -json stream stays byte-identical across runs.
type RunStats struct {
	Rules []RuleTiming  `json:"rules"` // registry order; only rules that ran
	Total time.Duration `json:"total_nanos"`
}

// Run executes every enabled analyzer over pkgs and returns the surviving
// findings sorted by position. Findings on lines carrying a matching
// //raslint:allow directive are suppressed; malformed directives are
// reported under the "directive" rule, and — with Config.Stale — so is
// every well-formed directive that suppressed nothing.
//
// Per-package analyzers run concurrently, one worker per package up to
// Config.Workers (default GOMAXPROCS); each worker fills a private finding
// slice and directive set, and the results are merged in package order, so
// the output is byte-identical to a serial run. Module analyzers run
// serially afterwards over facts built once.
func Run(cfg *Config, pkgs []*Package) []Diagnostic {
	diags, _ := RunWithStats(cfg, pkgs)
	return diags
}

// RunWithStats is Run plus per-rule timing.
func RunWithStats(cfg *Config, pkgs []*Package) ([]Diagnostic, *RunStats) {
	start := time.Now()
	if cfg == nil {
		cfg = &Config{}
	}
	known := map[string]bool{}
	for _, name := range RuleNames() {
		known[name] = true
	}

	// Phase 1: collect raw findings from every analyzer and the merged
	// directive index of every package. Filtering is global because the
	// module analyzers report across package boundaries.
	var raw []Diagnostic
	dirs := newDirectiveSet()
	var fset *token.FileSet

	type pkgResult struct {
		raw  []Diagnostic
		dirs *directiveSet
	}
	results := make([]pkgResult, len(pkgs))
	// ruleNanos is indexed [analyzers..., moduleAnalyzersList..., directive].
	ruleNanos := make([]int64, len(analyzers)+len(moduleAnalyzersList)+1)
	dirIdx := len(ruleNanos) - 1
	var wg sync.WaitGroup
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sem := make(chan struct{}, max(1, workers))
	for i, pkg := range pkgs {
		wg.Add(1)
		go func(i int, pkg *Package) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			res := &results[i]
			res.dirs = newDirectiveSet()
			collect := func(rule string) reportFunc {
				return func(pos token.Pos, format string, args ...any) {
					p := pkg.Fset.Position(pos)
					res.raw = append(res.raw, Diagnostic{
						File:    p.Filename,
						Line:    p.Line,
						Col:     p.Column,
						Rule:    rule,
						Message: fmt.Sprintf(format, args...),
					})
				}
			}
			t0 := time.Now()
			parseDirectives(pkg, known, res.dirs, func(pos token.Pos, rule, format string, args ...any) {
				collect(rule)(pos, format, args...)
			})
			atomic.AddInt64(&ruleNanos[dirIdx], time.Since(t0).Nanoseconds())
			for ai, a := range analyzers {
				if cfg.Disabled[a.name] {
					continue
				}
				t0 := time.Now()
				a.run(cfg, pkg, collect(a.name))
				atomic.AddInt64(&ruleNanos[ai], time.Since(t0).Nanoseconds())
			}
		}(i, pkg)
	}
	wg.Wait()
	for i, pkg := range pkgs {
		fset = pkg.Fset
		raw = append(raw, results[i].raw...)
		dirs.merge(results[i].dirs)
	}

	var needFacts bool
	for _, a := range moduleAnalyzersList {
		if !cfg.Disabled[a.name] {
			needFacts = true
		}
	}
	var mf *moduleFacts
	if needFacts {
		mf = buildModuleFacts(pkgs)
	}
	for mi, a := range moduleAnalyzersList {
		if cfg.Disabled[a.name] {
			continue
		}
		name := a.name
		t0 := time.Now()
		a.run(cfg, pkgs, mf, func(pkg *Package, pos token.Pos, format string, args ...any) {
			p := pkg.Fset.Position(pos)
			raw = append(raw, Diagnostic{
				File:    p.Filename,
				Line:    p.Line,
				Col:     p.Column,
				Rule:    name,
				Message: fmt.Sprintf(format, args...),
			})
		})
		ruleNanos[len(analyzers)+mi] += time.Since(t0).Nanoseconds()
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
	if cfg.Stale && fset != nil {
		for _, ad := range dirs.list {
			if ad.hit || cfg.Disabled[ad.rule] {
				continue
			}
			p := fset.Position(ad.pos)
			diags = append(diags, Diagnostic{
				File:    p.Filename,
				Line:    p.Line,
				Col:     p.Column,
				Rule:    "directive",
				Message: fmt.Sprintf("stale //raslint:allow %s: it suppresses no %s finding; remove the directive", ad.rule, ad.rule),
			})
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
	for i := range diags {
		diags[i].Fingerprint = fingerprint(diags[i])
	}

	stats := &RunStats{Total: time.Since(start)}
	for i, n := range ruleNanos {
		var rule string
		switch {
		case i < len(analyzers):
			rule = analyzers[i].name
		case i < len(analyzers)+len(moduleAnalyzersList):
			rule = moduleAnalyzersList[i-len(analyzers)].name
		default:
			rule = "directive"
		}
		if n > 0 || !cfg.Disabled[rule] {
			stats.Rules = append(stats.Rules, RuleTiming{Rule: rule, Nanos: n})
		}
	}
	return diags, stats
}

// fingerprint derives the stable identity hash of a finding: the first 16
// hex digits of SHA-256 over rule, file, line, and message. See the
// Diagnostic.Fingerprint field for why column is excluded.
func fingerprint(d Diagnostic) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("%s\x00%s\x00%d\x00%s", d.Rule, d.File, d.Line, d.Message)))
	return hex.EncodeToString(h[:8])
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
