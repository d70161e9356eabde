package lp

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"ras/internal/floats"
)

// TestQuickDevexMatchesDantzig forces the Devex pricing stage from the first
// iteration and checks it reaches the same optimal objective as the default
// staged (Dantzig-first) pricing on random feasible LPs. Devex picks
// different pivot sequences, so only the objective — not the vertex — must
// agree.
func TestQuickDevexMatchesDantzig(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nVars := 2 + rng.Intn(12)
		nRows := 1 + rng.Intn(10)
		p, _ := buildRandomFeasible(rng, nVars, nRows)
		base := solveCold(p)
		staged := devexAfter
		devexAfter = 0
		devex := solveCold(p)
		devexAfter = staged
		if base.Status != devex.Status {
			t.Logf("seed %d: status %v (dantzig) vs %v (devex)", seed, base.Status, devex.Status)
			return false
		}
		if base.Status != Optimal {
			return true
		}
		if !feasible(p, devex.X, 1e-5) {
			t.Logf("seed %d: devex returned infeasible point", seed)
			return false
		}
		if !approx(base.Objective, devex.Objective) {
			t.Logf("seed %d: obj %v (dantzig) vs %v (devex)", seed, base.Objective, devex.Objective)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestDevexPartialPricingBlocks solves an LP wide enough to span several
// partial-pricing blocks with Devex forced on, exercising the block rotor
// and its wrap-around, and checks optimality against the default pricing.
func TestDevexPartialPricingBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p, _ := buildRandomFeasible(rng, 3*priceBlock, 40)
	base := solveCold(p)
	ws := NewWorkspace()
	staged := devexAfter
	devexAfter = 0
	devex := p.SolveWith(context.Background(), Options{}, ws)
	devexAfter = staged
	if base.Status != Optimal || devex.Status != Optimal {
		t.Fatalf("status: dantzig=%v devex=%v, want optimal", base.Status, devex.Status)
	}
	if !approx(base.Objective, devex.Objective) {
		t.Fatalf("objective: dantzig=%v devex=%v", base.Objective, devex.Objective)
	}
	if !feasible(p, devex.X, 1e-5) {
		t.Fatal("devex returned infeasible point")
	}
}

// TestWorkspaceReuseUnchanged re-solves an unchanged problem through the
// ReuseBasis fast path: the second solve must report the same optimum, be
// marked warm-started, and need no primal iterations beyond the dual
// feasibility recheck.
func TestWorkspaceReuseUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p, _ := buildRandomFeasible(rng, 10, 8)
	ws := NewWorkspace()
	opt := Options{ReuseBasis: true}
	first := p.SolveWith(context.Background(), opt, ws)
	if first.Status != Optimal {
		t.Fatalf("first solve: %v", first.Status)
	}
	if first.WarmStarted {
		t.Fatal("first solve cannot be warm-started")
	}
	again := p.SolveWith(context.Background(), opt, ws)
	if again.Status != Optimal {
		t.Fatalf("re-solve: %v", again.Status)
	}
	if !again.WarmStarted {
		t.Fatal("re-solve of unchanged problem should reuse the retained basis")
	}
	if !approx(first.Objective, again.Objective) {
		t.Fatalf("objective drifted on reuse: %v vs %v", first.Objective, again.Objective)
	}
	if again.Iterations > first.Iterations/2 {
		t.Fatalf("reuse too expensive: %d iterations vs %d cold", again.Iterations, first.Iterations)
	}
}

// TestQuickReuseMatchesCold is the ReuseBasis analogue of
// TestQuickWarmMatchesCold: after random bound tightenings (the branch-and-
// bound pattern), a workspace re-solve must agree with a cold solve on
// status and objective.
func TestQuickReuseMatchesCold(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nVars := 2 + rng.Intn(12)
		nRows := 1 + rng.Intn(10)
		p, _ := buildRandomFeasible(rng, nVars, nRows)
		ws := NewWorkspace()
		opt := Options{ReuseBasis: true}
		if st := p.SolveWith(context.Background(), opt, ws).Status; st != Optimal {
			return true // nothing to warm-start from
		}
		// Tighten a few bounds the way branching does.
		for k := 0; k < 1+rng.Intn(3); k++ {
			j := rng.Intn(nVars)
			lo, up := p.Bounds(j)
			if rng.Intn(2) == 0 {
				mid := lo + (up-lo)*rng.Float64()
				p.SetBounds(j, lo, mid)
			} else {
				mid := lo + (up-lo)*rng.Float64()
				p.SetBounds(j, mid, up)
			}
		}
		warm := p.SolveWith(context.Background(), opt, ws)
		cold := p.SolveWith(context.Background(), Options{}, NewWorkspace())
		if warm.Status != cold.Status {
			t.Logf("seed %d: status %v (reuse) vs %v (cold)", seed, warm.Status, cold.Status)
			return false
		}
		if cold.Status == Optimal && !approx(warm.Objective, cold.Objective) {
			t.Logf("seed %d: obj %v (reuse) vs %v (cold)", seed, warm.Objective, cold.Objective)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestWorkspaceRetargets hands one workspace a sequence of differently
// shaped problems with ReuseBasis requested; every shape change must fall
// back to a clean cold start and still produce correct optima.
func TestWorkspaceRetargets(t *testing.T) {
	ws := NewWorkspace()
	opt := Options{ReuseBasis: true}
	for _, shape := range []struct{ nVars, nRows int }{{6, 4}, {12, 9}, {3, 2}, {12, 9}} {
		rng := rand.New(rand.NewSource(int64(shape.nVars * shape.nRows)))
		p, _ := buildRandomFeasible(rng, shape.nVars, shape.nRows)
		got := p.SolveWith(context.Background(), opt, ws)
		want := solveCold(p)
		if got.Status != want.Status {
			t.Fatalf("shape %dx%d: status %v, want %v", shape.nVars, shape.nRows, got.Status, want.Status)
		}
		if got.WarmStarted {
			t.Fatalf("shape %dx%d: warm start across a retarget", shape.nVars, shape.nRows)
		}
		if want.Status == Optimal && !approx(got.Objective, want.Objective) {
			t.Fatalf("shape %dx%d: obj %v, want %v", shape.nVars, shape.nRows, got.Objective, want.Objective)
		}
	}
}

// TestWorkspaceDeterministic runs the same solve/tighten/re-solve sequence
// on two fresh workspaces and requires bit-for-bit identical results — the
// reproducibility guarantee the branch-and-bound determinism tests build on.
func TestWorkspaceDeterministic(t *testing.T) {
	run := func() []Solution {
		rng := rand.New(rand.NewSource(23))
		p, _ := buildRandomFeasible(rng, 14, 10)
		ws := NewWorkspace()
		opt := Options{ReuseBasis: true}
		var sols []Solution
		sols = append(sols, p.SolveWith(context.Background(), opt, ws))
		for k := 0; k < 5; k++ {
			j := rng.Intn(14)
			lo, up := p.Bounds(j)
			p.SetBounds(j, lo, lo+(up-lo)*0.5)
			sols = append(sols, p.SolveWith(context.Background(), opt, ws))
		}
		return sols
	}
	a, b := run(), run()
	for i := range a {
		if a[i].Status != b[i].Status || a[i].Iterations != b[i].Iterations {
			t.Fatalf("solve %d: (%v, %d iters) vs (%v, %d iters)",
				i, a[i].Status, a[i].Iterations, b[i].Status, b[i].Iterations)
		}
		if len(a[i].X) != len(b[i].X) {
			t.Fatalf("solve %d: X length mismatch", i)
		}
		for j := range a[i].X {
			if !floats.ExactEqual(a[i].X[j], b[i].X[j]) {
				t.Fatalf("solve %d: X[%d] %v vs %v", i, j, a[i].X[j], b[i].X[j])
			}
		}
	}
}

// TestReuseResolveAllocs bounds allocations on the two warm re-solve paths
// branch-and-bound leans on: an unchanged re-solve and a bound-flip
// re-solve. Steady state must not allocate beyond the Solution's X vector
// (a couple of allocations; the workspace supplies everything else).
func TestReuseResolveAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	p, _ := buildRandomFeasible(rng, 20, 14)
	ws := NewWorkspace()
	opt := Options{ReuseBasis: true}
	ctx := context.Background()
	if st := p.SolveWith(ctx, opt, ws).Status; st != Optimal {
		t.Fatalf("prime solve: %v", st)
	}

	if allocs := testing.AllocsPerRun(100, func() {
		p.SolveWith(ctx, opt, ws)
	}); allocs > 4 {
		t.Errorf("unchanged re-solve: %.1f allocs/op, want ≤ 4", allocs)
	}

	lo0, up0 := p.Bounds(0)
	mid := lo0 + (up0-lo0)/2
	flip := false
	if allocs := testing.AllocsPerRun(100, func() {
		// Alternate the bound of one variable, the node-LP pattern.
		if flip {
			p.SetBounds(0, lo0, mid)
		} else {
			p.SetBounds(0, lo0, up0)
		}
		flip = !flip
		p.SolveWith(ctx, opt, ws)
	}); allocs > 4 {
		t.Errorf("bound-flip re-solve: %.1f allocs/op, want ≤ 4", allocs)
	}
	p.SetBounds(0, lo0, up0)
}
