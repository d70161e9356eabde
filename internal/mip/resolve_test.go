package mip

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
)

// TestResolveAllocsBounded pins what re-solving a model costs in allocations
// when the model keeps its per-solve state (solveState): the unchanged model,
// and the model with one bound patched, each re-solved from its own RootBasis
// and RootWorkspace the way the RAS solver re-solves a quiet round. What is
// left to allocate is what the Result carries — X and RootBasis — the root
// LP's Solution.X, and fixed-size structs of the engine, its search and its
// node pool; nothing else of the model's width.
func TestResolveAllocsBounded(t *testing.T) {
	m, point := randomAssignment(rand.New(rand.NewSource(3)), 20, 10)
	m.SetInitial(point)
	ctx := context.Background()
	res := m.Solve(ctx, Options{Workers: 1})
	// Started from its own optimum, a re-solve proves it at the root: no node,
	// no heuristic.
	m.SetInitial(res.X)
	resolve := func() Result {
		res = m.Solve(ctx, Options{Workers: 1, RootBasis: res.RootBasis, RootWorkspace: res.RootWorkspace})
		if res.Status != Optimal || res.Nodes != 0 || res.RootBasis == nil {
			t.Fatalf("re-solve: %v after %d nodes, root basis %v", res.Status, res.Nodes, res.RootBasis != nil)
		}
		return res
	}
	resolve()
	patch := 0 // a variable at 0 in the optimum: fixing it there keeps the warm start
	for res.X[patch] != 0 {
		patch++
	}
	lo, up := m.VarBounds(Var(patch))
	fixed := false
	patched := func() Result {
		if fixed = !fixed; fixed {
			m.SetVarBounds(Var(patch), lo, lo)
		} else {
			m.SetVarBounds(Var(patch), lo, up)
		}
		return resolve()
	}

	n := m.NumVars()
	basisBytes := 64 + 8*((n+m.NumConstrs()+31)/32)
	carried := 2*8*n + basisBytes // Result.X, the root LP's X, Result.RootBasis
	const fixedBytes = 2048       // engine, search, node pool and their small slices
	const fixedAllocs = 13        // X, the root LP's X, RootBasis (2), nine fixed-size structs
	for _, c := range []struct {
		name string
		run  func() Result
	}{{"unchanged", resolve}, {"patched", patched}} {
		allocs := testing.AllocsPerRun(20, func() { c.run() })
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const runs = 20
		for i := 0; i < runs; i++ {
			c.run()
		}
		runtime.ReadMemStats(&after)
		bytes := int(after.TotalAlloc-before.TotalAlloc) / runs
		if allocs > fixedAllocs || bytes > carried+fixedBytes {
			t.Errorf("%s re-solve: %.0f allocs and %d B per solve, want ≤ %d and ≤ %d B (%d variables)",
				c.name, allocs, bytes, fixedAllocs, carried+fixedBytes, n)
		}
	}
}
