package mip

import (
	"context"
	"math/rand"
	"testing"
)

// generalizedAssignment builds the seed's 14-task, 4-bin model, whose task
// sizes make the root relaxation fractional, so root heuristics run, dives fix
// and re-widen binaries, and the tree backtracks.
func generalizedAssignment(seed int64) *Model {
	rng := rand.New(rand.NewSource(seed))
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
			x[i][j] = m.AddIntVar("x", 1+rng.Float64()*9, 0, 1)
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

// TestWarmStartStatsOnResult: a solve reports how its warm-started LPs fared
// on the Result it returns. Over five generalized-assignment models, every
// LP is accounted for — completed warm, abandoned for a named reason, or
// never offered a basis (the root, the cold dive) — warm completions are the
// rule, and a repeated serial solve reports the same statistics.
func TestWarmStartStatsOnResult(t *testing.T) {
	solves, warm := 0, 0
	for seed := int64(7); seed < 12; seed++ {
		m := generalizedAssignment(seed)
		res := m.Solve(context.Background(), Options{MaxNodes: 400})
		if res.Status != Optimal && res.Status != Feasible {
			t.Fatalf("seed %d: status %v", seed, res.Status)
		}
		if res.Nodes < 2 {
			t.Fatalf("seed %d: solved in %d nodes: the instance no longer branches", seed, res.Nodes)
		}
		l := res.LP
		if l.Solves < res.Nodes || l.WarmHits == 0 {
			t.Fatalf("seed %d: %d nodes but LP statistics %+v", seed, res.Nodes, l)
		}
		if l.WarmHits+l.ColdFallbacks.Total() > l.Solves || l.ColdFallbacks[0] != 0 {
			t.Fatalf("seed %d: %d warm completions and fallbacks %v in %d LP solves", seed, l.WarmHits, l.ColdFallbacks, l.Solves)
		}
		solves += l.Solves
		warm += l.WarmHits

		again := m.Solve(context.Background(), Options{MaxNodes: 400})
		if again.LP != res.LP {
			t.Fatalf("seed %d: serial solve not repeatable: %+v then %+v", seed, res.LP, again.LP)
		}
	}
	if 10*warm < 8*solves {
		t.Fatalf("%d of %d LP solves completed warm, want at least 8 in 10", warm, solves)
	}
}
