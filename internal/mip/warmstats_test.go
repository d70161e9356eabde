package mip

import (
	"context"
	"math/rand"
	"testing"

	"ras/internal/lp"
)

// generalizedAssignment builds a fixed 14-task, 4-bin model whose task sizes
// make the root relaxation fractional, so root heuristics run, dives fix and
// re-widen binaries, and the tree backtracks.
func generalizedAssignment() *Model {
	rng := rand.New(rand.NewSource(7))
	const tasks, bins = 14, 4
	m := NewModel()
	x := make([][]Var, tasks)
	size := make([]float64, tasks)
	total := 0.0
	for i := range x {
		size[i] = float64(2 + rng.Intn(7))
		total += size[i]
		x[i] = make([]Var, bins)
		row := make([]Term, bins)
		for j := range x[i] {
			x[i][j] = m.AddBinVar("x", 1+rng.Float64()*9)
			row[j] = Term{x[i][j], 1}
		}
		m.AddConstr("assign", row, EQ, 1)
	}
	for j := 0; j < bins; j++ {
		row := make([]Term, tasks)
		for i := range x {
			row[i] = Term{x[i][j], size[i]}
		}
		m.AddConstr("cap", row, LE, 1.15*total/bins)
	}
	return m
}

// TestWarmStartStatsOnResult: a generalized-assignment solve reports how its
// warm-started LPs fared on the Result it returns. Every column is a binary,
// so every re-widened column has an opposite bound to flip to: warm starts
// must flip, and none may fall back cold for dual infeasibility.
func TestWarmStartStatsOnResult(t *testing.T) {
	m := generalizedAssignment()
	res := m.Solve(context.Background(), Options{MaxNodes: 400})
	if res.Status != Optimal && res.Status != Feasible {
		t.Fatalf("status %v", res.Status)
	}
	if res.Nodes < 2 {
		t.Fatalf("solved in %d nodes: the instance no longer branches", res.Nodes)
	}
	if res.LP.FlippedColumns == 0 {
		t.Fatal("no LP flipped a column: dives and backtracks no longer reach the warm repair")
	}
	if n := res.LP.ColdFallbacks[lp.ColdDualInfeasible]; n != 0 {
		t.Fatalf("%d of %d LP solves fell back cold for dual infeasibility (all fallbacks: %v)",
			n, res.LP.Solves, res.LP.ColdFallbacks)
	}
	if res.LP.ColdFallbacks.Total() > res.LP.Solves {
		t.Fatalf("%v cold fallbacks in %d LP solves", res.LP.ColdFallbacks, res.LP.Solves)
	}

	again := m.Solve(context.Background(), Options{MaxNodes: 400})
	if again.LP.FlippedColumns != res.LP.FlippedColumns || again.LP.ColdFallbacks != res.LP.ColdFallbacks {
		t.Fatalf("serial solve not repeatable: flipped %d then %d, fallbacks %v then %v",
			res.LP.FlippedColumns, again.LP.FlippedColumns, res.LP.ColdFallbacks, again.LP.ColdFallbacks)
	}
}
