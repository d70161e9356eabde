package lp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestQuickWarmMatchesCold: after random bound tightenings, a warm-started
// solve must agree with a cold solve on status and objective.
func TestQuickWarmMatchesCold(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p, _ := buildRandomFeasible(rng, 3+rng.Intn(10), 1+rng.Intn(8))
		ws := NewWorkspace()
		first, basis := solveOn(p, ws, Options{})
		if first.Status != Optimal || basis == nil {
			return true // nothing to warm-start from
		}
		// Tighten random variable bounds (branching-style changes).
		for j := 0; j < p.NumVars(); j++ {
			if rng.Float64() < 0.4 {
				lo, up := p.Bounds(j)
				v := math.Round(first.X[j])
				switch rng.Intn(3) {
				case 0: // fix
					v = math.Max(lo, math.Min(up, v))
					p.SetBounds(j, v, v)
				case 1: // floor branch
					p.SetBounds(j, lo, math.Max(lo, math.Min(up, v)))
				case 2: // ceil branch
					p.SetBounds(j, math.Max(lo, math.Min(up, v)), up)
				}
			}
		}
		warm, _ := solveOn(p, ws, Options{Start: basis})
		cold, _ := solveOn(p, ws, Options{})
		if warm.Status != cold.Status {
			t.Logf("seed %d: warm=%v cold=%v", seed, warm.Status, cold.Status)
			return false
		}
		if cold.Status == Optimal {
			if math.Abs(warm.Objective-cold.Objective) > 1e-5*(1+math.Abs(cold.Objective)) {
				t.Logf("seed %d: warm obj %v vs cold %v", seed, warm.Objective, cold.Objective)
				return false
			}
			if !feasible(p, warm.X, 1e-5) {
				t.Logf("seed %d: warm solution infeasible", seed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestWarmNoChange: warm start with unchanged bounds must terminate
// immediately at the same optimum.
func TestWarmNoChange(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p, _ := buildRandomFeasible(rng, 20, 10)
	ws := NewWorkspace()
	first, basis := solveOn(p, ws, Options{})
	if first.Status != Optimal || basis == nil {
		t.Skip("no exportable basis")
	}
	warm, _ := solveOn(p, ws, Options{Start: basis})
	if warm.Status != Optimal {
		t.Fatalf("warm status=%v", warm.Status)
	}
	if math.Abs(warm.Objective-first.Objective) > 1e-7*(1+math.Abs(first.Objective)) {
		t.Fatalf("objective drifted: %v vs %v", warm.Objective, first.Objective)
	}
	if warm.Iterations > first.Iterations/2 {
		t.Fatalf("warm start did not help: %d vs %d iterations", warm.Iterations, first.Iterations)
	}
}
