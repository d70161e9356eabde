package mip

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// addMixedModel adds to m a mixed model whose shape depends on n alone and
// whose rows on seed: n integer columns in [0, 3] under random sparse
// capacity rows, each with a continuous column in [0, 2] of either sign, a
// hinge y ≥ Σ − c per row with a penalty cost, and an envelope over three
// groups of the integers. The integer costs are negative, so the relaxation
// runs into the rows and comes out fractional, and the rounding and repair
// heuristics read the column index and the rows' continuous ranges — which
// differ from seed to seed although every bound is the same.
func addMixedModel(m *Model, seed int64, n int) {
	rng := rand.New(rand.NewSource(seed))
	x := make([]Var, n)
	for j := range x {
		x[j] = m.AddIntVar("x", -1-float64(rng.Intn(5)), 0, 3)
	}
	rows := n / 2
	groups := make([][]Term, 3)
	for i := 0; i < rows; i++ {
		var terms []Term
		for _, j := range rng.Perm(n)[:3] {
			terms = append(terms, Term{x[j], float64(1 + rng.Intn(3))})
		}
		c := m.AddVar("c", 0.5, 0, 2)
		m.AddConstr("cap", append(terms, Term{c, float64(2*rng.Intn(2) - 1)}), LE, float64(2+rng.Intn(5))+0.5)
		y, _ := m.AddPosPart("over", terms, -float64(1+rng.Intn(3)), 2)
		m.MarkPenalty(y)
		groups[i%3] = append(groups[i%3], terms...)
	}
	m.AddUpperEnvelope("env", groups, 0.5)
}

// sameResult reports whether a and b agree to the bit in everything a solve
// decides and counts.
func sameResult(a, b Result) bool {
	bits := func(v float64) uint64 { return math.Float64bits(v) }
	return a.Status == b.Status && bits(a.Objective) == bits(b.Objective) && bits(a.Bound) == bits(b.Bound) &&
		slices.EqualFunc(a.X, b.X, func(u, v float64) bool { return bits(u) == bits(v) }) &&
		a.Nodes == b.Nodes && a.LP == b.LP && a.IncumbentUpdates == b.IncumbentUpdates &&
		a.HeuristicWins == b.HeuristicWins && a.RootLPIters == b.RootLPIters && a.RootWarm == b.RootWarm &&
		a.RootCold == b.RootCold && bits(a.RootObjective) == bits(b.RootObjective)
}

// TestRecycledModelSolvesAsNew: a Model rebuilt in its own storage (Reset)
// into a model of the same shape with other rows, and solved on the
// workspace of its last solve, solves exactly as a new Model built the same
// way on a new workspace. The column index and the rows' continuous ranges
// must not survive the rebuild, although the shape — and every continuous
// bound — is what it was.
func TestRecycledModelSolvesAsNew(t *testing.T) {
	ctx := context.Background()
	for _, n := range []int{12, 30} {
		recycled := NewModel()
		var last Result
		for round := int64(0); round < 6; round++ {
			seed := 100*int64(n) + round
			if round > 0 {
				recycled.Reset()
			}
			addMixedModel(recycled, seed, n)
			fresh := NewModel()
			addMixedModel(fresh, seed, n)
			if recycled.Fingerprint() != fresh.Fingerprint() {
				t.Fatalf("n %d round %d: the rebuilt model's fingerprint differs from a new one's", n, round)
			}
			got := recycled.Solve(ctx, Options{Workers: 1, MaxNodes: 50, RootBasis: last.RootBasis, RootWorkspace: last.RootWorkspace})
			want := fresh.Solve(ctx, Options{Workers: 1, MaxNodes: 50, RootBasis: last.RootBasis})
			if !sameResult(got, want) {
				t.Fatalf("n %d round %d: rebuilt model %v %.17g after %d nodes (%d heuristic wins, LP %+v), new model %v %.17g after %d nodes (%d heuristic wins, LP %+v)",
					n, round, got.Status, got.Objective, got.Nodes, got.HeuristicWins, got.LP,
					want.Status, want.Objective, want.Nodes, want.HeuristicWins, want.LP)
			}
			last = got
		}
	}
}
