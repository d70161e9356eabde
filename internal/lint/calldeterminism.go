package lint

// calldeterminism: the determinism rule, extended from direct calls to
// call-graph reachability. The per-package determinism rule only sees
// time.Now written inside the scoped solver packages; nothing stopped a
// solver function from calling a helper in an unscoped package that reads
// the wall clock two hops away. This analyzer walks the module call graph
// from the solve entry points (Config.CalldeterminismEntries) and flags
// any transitively reachable call to the forbidden wall-clock readers or
// global math/rand functions, printing the call path from the entry point
// so the diagnostic explains itself:
//
//	solve path solver.Solve → buildModel → topology.Stamp reaches time.Now
//
// The internal/clock seam is the single sanctioned wall-clock reader:
// traversal does not descend into ras/internal/clock, so routing timing
// through the seam is exactly what makes a path legal.
//
// This is a module-level analyzer: it runs once over all loaded packages
// (analyzer.runModule in lint.go) because reachability cannot be decided one
// package at a time.

import (
	"go/types"
	"sort"
	"strings"
)

// clockSeamPath is the one package allowed to read the wall clock.
const clockSeamPath = "ras/internal/clock"

// defaultSolveEntryPoints are the solve entry points of this module: the
// public Solve seams of the façade, the backend interface (expanded to
// every implementation), and the engines underneath.
var defaultSolveEntryPoints = []string{
	"ras.System.Solve",
	"ras.System.SolveWith",
	"ras/internal/backend.Backend.Solve",
	"ras/internal/solver.Solve",
	"ras/internal/solver.SolveWarm",
	"ras/internal/solver.RepairTargets",
	"ras/internal/solver.Evaluate",
	"ras/internal/partition.Split",
	"ras/internal/partition.SplitDemands",
	"ras/internal/mip.Model.Solve",
	"ras/internal/lp.Problem.SolveWith",
}

func (c *Config) calldeterminismEntries() []string {
	if c.CalldeterminismEntries != nil {
		return c.CalldeterminismEntries
	}
	return defaultSolveEntryPoints
}

func runCalldeterminism(cfg *Config, pkgs []*Package, report reportFunc) {
	g := buildCallGraph(pkgs)

	// Resolve entry points. Patterns naming packages outside the loaded
	// set are silently inert so `raslint internal/mip` still works.
	type queued struct {
		node *cgNode
		// trail is the display-name path from the entry point, inclusive.
		trail []string
	}
	var queue []queued
	seen := map[*cgNode]bool{}
	for _, pattern := range cfg.calldeterminismEntries() {
		spec, err := parseEntrySpec(pattern)
		if err != nil {
			continue // validated by the driver; unreachable under raslint
		}
		for _, fn := range g.resolveEntry(pkgs, spec) {
			if node, ok := g.nodes[fn]; ok && !seen[node] {
				seen[node] = true
				queue = append(queue, queued{node, []string{funcDisplayName(fn)}})
			}
		}
	}

	// One finding per (calling function, forbidden callee): the shortest
	// path wins because the walk is breadth-first.
	reported := map[string]bool{}
	for len(queue) > 0 {
		q := queue[0]
		queue = queue[1:]
		for _, call := range sortedCalls(q.node) {
			callee := call.callee
			if forbidden, what := forbiddenNondeterminism(callee); forbidden {
				key := funcDisplayName(q.node.fn) + "|" + what
				if reported[key] {
					continue
				}
				reported[key] = true
				report(call.pos, "solve path %s reaches %s; route timing through internal/clock or thread a seeded *rand.Rand",
					strings.Join(q.trail, " → ")+" → "+what, what)
				continue
			}
			targets := []*cgNodeRef{}
			if isInterfaceMethod(callee) {
				for _, impl := range g.implementations(callee) {
					if node, ok := g.nodes[impl]; ok {
						targets = append(targets, &cgNodeRef{node, funcDisplayName(impl)})
					}
				}
			} else if node, ok := g.nodes[callee]; ok {
				targets = append(targets, &cgNodeRef{node, funcDisplayName(callee)})
			}
			for _, t := range targets {
				if t.node.pkg.Path == clockSeamPath {
					continue // the sanctioned seam
				}
				if seen[t.node] {
					continue
				}
				seen[t.node] = true
				trail := append(append([]string(nil), q.trail...), t.display)
				queue = append(queue, queued{t.node, trail})
			}
		}
	}
}

type cgNodeRef struct {
	node    *cgNode
	display string
}

// sortedCalls orders a node's calls by source position so the BFS (and
// therefore the chosen shortest paths) is deterministic.
func sortedCalls(n *cgNode) []callSite {
	calls := append([]callSite(nil), n.calls...)
	sort.Slice(calls, func(i, j int) bool { return calls[i].pos < calls[j].pos })
	return calls
}

// forbiddenNondeterminism classifies a callee as a wall-clock read or a
// global math/rand draw. Methods (e.g. (*rand.Rand).Intn on a seeded
// source) are never forbidden.
func forbiddenNondeterminism(fn *types.Func) (bool, string) {
	if fn.Pkg() == nil {
		return false, ""
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return false, ""
	}
	switch fn.Pkg().Path() {
	case "time":
		if forbiddenTimeFuncs[fn.Name()] {
			return true, "time." + fn.Name()
		}
	case "math/rand", "math/rand/v2":
		if globalRandFuncs[fn.Name()] {
			return true, fn.Pkg().Name() + "." + fn.Name()
		}
	}
	return false, ""
}
