package mip

import (
	"context"
	"math"
	"testing"
)

// TestNodeLPStartsFromParent: starting every node LP from the basis of the LP
// it was branched from changes how much simplex work a search costs, not what
// it finds. On models small enough to search to the end, with and without the
// offer, Workers = 1 proves the same optimum, in fewer LP iterations with it
// (summed over the models); two identical solves return identical points and
// LP statistics; and Workers = 4 reaches the same status and optimum.
func TestNodeLPStartsFromParent(t *testing.T) {
	ctx := context.Background()
	withIters, withoutIters := 0, 0
	for seed := int64(7); seed < 12; seed++ {
		m := generalizedAssignment(seed)
		with := m.Solve(ctx, Options{})
		offerParentBasis = false
		without := m.Solve(ctx, Options{})
		offerParentBasis = true
		if with.Status != Optimal || without.Status != Optimal {
			t.Fatalf("seed %d: status %v with the offer, %v without: the model is no longer searched to the end", seed, with.Status, without.Status)
		}
		if with.Nodes < 3 {
			t.Fatalf("seed %d: solved in %d nodes: the instance no longer branches", seed, with.Nodes)
		}
		if d := math.Abs(with.Objective - without.Objective); d > 1e-6 { // Options.AbsGap's default
			t.Fatalf("seed %d: optimum %v with the offer, %v without", seed, with.Objective, without.Objective)
		}
		withIters += with.LP.Iterations
		withoutIters += without.LP.Iterations
		t.Logf("seed %d: %d nodes %d LPs %d iterations with the offer; %d nodes %d LPs %d iterations without",
			seed, with.Nodes, with.LP.Solves, with.LP.Iterations, without.Nodes, without.LP.Solves, without.LP.Iterations)

		again := m.Solve(ctx, Options{})
		if again.LP != with.LP || again.Nodes != with.Nodes {
			t.Fatalf("seed %d: serial solve not repeatable: %+v then %+v", seed, with.LP, again.LP)
		}
		for j := range with.X {
			if math.Float64bits(with.X[j]) != math.Float64bits(again.X[j]) {
				t.Fatalf("seed %d: serial solve not repeatable: x[%d] = %v then %v", seed, j, with.X[j], again.X[j])
			}
		}

		par := m.Solve(ctx, Options{Workers: 4})
		if par.Status != with.Status || math.Abs(par.Objective-with.Objective) > 1e-6 {
			t.Fatalf("seed %d: Workers=4 gives %v %v, Workers=1 %v %v", seed, par.Status, par.Objective, with.Status, with.Objective)
		}
	}
	if withIters >= withoutIters {
		t.Fatalf("%d LP iterations starting nodes from their parents' bases, %d without", withIters, withoutIters)
	}
	t.Logf("LP iterations over the models: %d from the parent's basis, %d from the workspace's last", withIters, withoutIters)
}
