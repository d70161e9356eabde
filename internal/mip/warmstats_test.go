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
// never offered a basis (the root, the retry dive's first LP) — warm
// completions are the rule, and a repeated serial solve reports the same
// statistics.
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

// spreadModel is a miniature RAS phase model: res reservations take integer
// counts of doms fault domains' server pools (types classes each, shared by
// every reservation valuing them), and each reservation's capacity must
// survive losing its largest domain — an upper envelope over the domain
// sums, with a penalty slack. The coupling through the envelopes strands
// the first dives' roundings, so the root's retry dive fires and runs deep.
func spreadModel(seed int64, res, doms, types int) *Model {
	rng := rand.New(rand.NewSource(seed))
	m := NewModel()
	pool := make([][]float64, doms)
	use := make([][][]Term, doms)
	for d := range pool {
		pool[d] = make([]float64, types)
		use[d] = make([][]Term, types)
		for c := range pool[d] {
			pool[d][c] = float64(2 + rng.Intn(6))
		}
	}
	for r := 0; r < res; r++ {
		val := make([]float64, types)
		for c := range val {
			if rng.Intn(3) > 0 {
				val[c] = float64(1 + rng.Intn(3))
			}
		}
		var total []Term
		groups := make([][]Term, doms)
		for d := 0; d < doms; d++ {
			for c := 0; c < types; c++ {
				if val[c] == 0 {
					continue
				}
				x := m.AddIntVar("x", 0.01*float64(rng.Intn(10)), 0, pool[d][c])
				use[d][c] = append(use[d][c], Term{x, 1})
				total = append(total, Term{x, val[c]})
				groups[d] = append(groups[d], Term{x, val[c]})
			}
		}
		z, _ := m.AddUpperEnvelope("z", groups, 0.5)
		s := m.AddVar("s", 100, 0, Inf)
		m.MarkPenalty(s)
		m.AddConstr("cap", append(total, Term{z, -1}, Term{s, 1}), GE, float64(4+rng.Intn(10)))
	}
	for d := range use {
		for c := range use[d] {
			if len(use[d][c]) > 0 {
				m.AddConstr("pool", use[d][c], LE, pool[d][c])
			}
		}
	}
	return m
}

// TestRetryDiveStartsColdOnce: the root's retry dive starts from no basis
// once and continues its own chain from there, so a search solves exactly two
// LPs that were offered no basis — the root and the retry dive's first —
// however deep the dive goes. On this model the dive fires and solves six
// LPs; started cold at every depth it would count seven.
func TestRetryDiveStartsColdOnce(t *testing.T) {
	m := spreadModel(1, 3, 3, 3)
	res := m.Solve(context.Background(), Options{MaxNodes: 1, Workers: 1})
	if res.Status != Optimal && res.Status != Feasible {
		t.Fatalf("status %v", res.Status)
	}
	l := res.LP
	if cold := l.Solves - l.WarmHits - l.ColdFallbacks.Total(); cold != 2 {
		t.Fatalf("%d of %d LP solves offered no basis, want 2 (the root, the retry dive's first): %+v", cold, l.Solves, l)
	}
}
