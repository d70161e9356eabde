package lp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestWarmAfterFixAll mimics the MIP completion heuristic: fix every
// variable to integers near the optimum and warm-resolve.
func TestWarmAfterFixAll(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	p, _ := buildRandomFeasible(rng, 15, 8)
	ws := NewWorkspace()
	first, basis := solveOn(p, ws, Options{})
	if first.Status != Optimal || basis == nil {
		t.Skip("no basis")
	}
	saved := make([][2]float64, p.NumVars())
	for j := 0; j < p.NumVars(); j++ {
		lo, up := p.Bounds(j)
		saved[j] = [2]float64{lo, up}
		v := math.Max(lo, math.Min(up, math.Round(first.X[j])))
		p.SetBounds(j, v, v)
	}
	warm, _ := solveOn(p, ws, Options{Start: basis})
	cold, _ := solveOn(p, ws, Options{})
	if warm.Status != cold.Status {
		t.Fatalf("warm=%v cold=%v after fixing all variables", warm.Status, cold.Status)
	}
	if cold.Status == Optimal && math.Abs(warm.Objective-cold.Objective) > 1e-6*(1+math.Abs(cold.Objective)) {
		t.Fatalf("objective mismatch: warm %v vs cold %v", warm.Objective, cold.Objective)
	}
	for j := range saved {
		p.SetBounds(j, saved[j][0], saved[j][1])
	}
}

// TestWarmChainStaysConsistent chains many warm solves with random bound
// nudges — the drift scenario that once produced stale cached inverses —
// and cross-checks against cold solves at every step.
func TestWarmChainStaysConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	p, _ := buildRandomFeasible(rng, 20, 12)
	ws := NewWorkspace()
	sol, basis := solveOn(p, ws, Options{})
	if sol.Status != Optimal {
		t.Skip("base not optimal")
	}
	for step := 0; step < 40; step++ {
		j := rng.Intn(p.NumVars())
		lo, up := p.Bounds(j)
		switch rng.Intn(3) {
		case 0:
			v := math.Max(lo, math.Min(up, math.Round(sol.X[j])))
			p.SetBounds(j, v, v)
		case 1:
			p.SetBounds(j, lo, math.Max(lo, up*0.9))
		case 2:
			p.SetBounds(j, lo, up+1)
		}
		warm, warmBasis := solveOn(p, ws, Options{Start: basis})
		cold, _ := solveOn(p, ws, Options{})
		if warm.Status != cold.Status {
			t.Fatalf("step %d: warm=%v cold=%v", step, warm.Status, cold.Status)
		}
		if cold.Status == Optimal {
			if math.Abs(warm.Objective-cold.Objective) > 1e-5*(1+math.Abs(cold.Objective)) {
				t.Fatalf("step %d: warm obj %v vs cold %v", step, warm.Objective, cold.Objective)
			}
			sol = warm
			if warmBasis != nil {
				basis = warmBasis
			}
		} else {
			// Infeasible: revert the bound change to keep the chain alive.
			p.SetBounds(j, lo, up)
		}
	}
}

// TestWarmStaleBasisRejected: a basis from a different problem shape must
// fall back to a cold start, not corrupt the solve.
func TestWarmStaleBasisRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	p1, _ := buildRandomFeasible(rng, 10, 5)
	_, basis1 := solveOn(p1, NewWorkspace(), Options{})
	if basis1 == nil {
		t.Skip("no basis")
	}
	p2, _ := buildRandomFeasible(rng, 14, 7) // different shape
	ws := NewWorkspace()
	sol2, _ := solveOn(p2, ws, Options{Start: basis1})
	cold, _ := solveOn(p2, ws, Options{})
	if sol2.Status != cold.Status {
		t.Fatalf("foreign basis changed status: %v vs %v", sol2.Status, cold.Status)
	}
	if cold.Status == Optimal && math.Abs(sol2.Objective-cold.Objective) > 1e-6*(1+math.Abs(cold.Objective)) {
		t.Fatalf("foreign basis changed objective: %v vs %v", sol2.Objective, cold.Objective)
	}
}

// TestQuickWarmNeverWorseIters: warm starts must not loop; their iteration
// counts stay bounded by the cold solve plus repair work.
func TestQuickWarmNeverWorseIters(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p, _ := buildRandomFeasible(rng, 4+rng.Intn(10), 2+rng.Intn(6))
		ws := NewWorkspace()
		first, basis := solveOn(p, ws, Options{})
		if first.Status != Optimal || basis == nil {
			return true
		}
		// Unchanged problem: warm solve should be nearly free.
		warm, _ := solveOn(p, ws, Options{Start: basis})
		return warm.Status == Optimal && warm.Iterations <= first.Iterations+2
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBoundsAccessor(t *testing.T) {
	var p Problem
	j := p.AddVar(0, 1, 5)
	if lo, up := p.Bounds(j); lo != 1 || up != 5 {
		t.Fatalf("Bounds = %v, %v", lo, up)
	}
	p.SetBounds(j, 2, 2)
	if lo, up := p.Bounds(j); lo != 2 || up != 2 {
		t.Fatalf("after SetBounds: %v, %v", lo, up)
	}
}

func TestSetBoundsPanics(t *testing.T) {
	var p Problem
	p.AddVar(0, 0, 1)
	for _, fn := range []func(){
		func() { p.SetBounds(5, 0, 1) },
		func() { p.SetBounds(0, 2, 1) },
		func() { p.SetBounds(0, math.Inf(-1), 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}
