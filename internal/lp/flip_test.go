package lp

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// sameOutcome reports whether a warm solve and the cold reference agree in
// status and, when optimal, in objective to 1e-7 (relative).
func sameOutcome(warm, cold Solution) bool {
	if warm.Status != cold.Status {
		return false
	}
	return cold.Status != Optimal ||
		math.Abs(warm.Objective-cold.Objective) <= 1e-7*(1+math.Abs(cold.Objective))
}

// TestRewidenedColumnStaysWarm is the case the old sign check could not
// pass: columns fixed (lo == up) when the good basis was saved are skipped by
// the dual-feasibility conditions, so once a dive rollback or a backtrack
// widens them again they sit at their lower bound with a reduced cost of
// either sign. The warm start must flip the wrong-signed ones to their upper
// bound and carry on — no cold fallback — and agree with a cold solve.
func TestRewidenedColumnStaysWarm(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p, point := buildRandomFeasible(rng, 40, 20)
	ws := NewWorkspace()
	opt := Options{ReuseBasis: true}

	// Solve 1: every third column fixed where the known feasible point has
	// it, so the problem stays feasible.
	type box struct{ lo, up float64 }
	saved := map[int]box{}
	for j := 0; j < p.NumVars(); j += 3 {
		lo, up := p.Bounds(j)
		saved[j] = box{lo, up}
		p.SetBounds(j, point[j], point[j])
	}
	if st := p.SolveWith(context.Background(), opt, ws).Status; st != Optimal {
		t.Fatalf("solve with fixed columns: %v", st)
	}

	// Solve 2: the boxes are back.
	for j, b := range saved {
		p.SetBounds(j, b.lo, b.up)
	}
	before := ws.Stats()
	warm := p.SolveWith(context.Background(), opt, ws)
	cold := p.SolveWith(context.Background(), Options{}, NewWorkspace())
	if !warm.WarmStarted || warm.ColdFallback != ColdNone {
		t.Fatalf("re-widened solve left the warm path: WarmStarted=%v ColdFallback=%v",
			warm.WarmStarted, warm.ColdFallback)
	}
	if ws.Stats().FlippedColumns == before.FlippedColumns {
		t.Fatal("no column was flipped: the instance no longer exercises the repair")
	}
	if !sameOutcome(warm, cold) {
		t.Fatalf("warm %v %.10g, cold %v %.10g", warm.Status, warm.Objective, cold.Status, cold.Objective)
	}
	if warm.Iterations >= cold.Iterations {
		t.Fatalf("warm start took %d iterations, a cold solve %d", warm.Iterations, cold.Iterations)
	}
}

// TestWarmMatchesColdUnderBoundEdits is the property behind every node LP:
// whatever sequence of fixings, tightenings, relaxations and re-widenings the
// caller applies between solves of one workspace, the warm answer is the cold
// answer — at the default refactorization cadence and when every pivot
// refactorizes.
func TestWarmMatchesColdUnderBoundEdits(t *testing.T) {
	for _, refactorEvery := range []int{0, -1} {
		flips := 0
		var fallbacks ColdCounts
		for seed := int64(1); seed <= 120; seed++ {
			rng := rand.New(rand.NewSource(seed))
			p, _ := buildRandomFeasible(rng, 4+rng.Intn(20), 2+rng.Intn(12))
			n := p.NumVars()
			rootLo, rootUp := make([]float64, n), make([]float64, n)
			for j := 0; j < n; j++ {
				rootLo[j], rootUp[j] = p.Bounds(j)
			}
			ws := NewWorkspace()
			opt := Options{ReuseBasis: true, RefactorEvery: refactorEvery}
			last := p.SolveWith(context.Background(), opt, ws)
			// want re-adds, from the Solutions, what ws counts for itself.
			want := Stats{Solves: 1, Iterations: last.Iterations}
			for step := 0; step < 12; step++ {
				type edit struct {
					j      int
					lo, up float64
				}
				var undo []edit
				for k := 0; k <= rng.Intn(4); k++ {
					j := rng.Intn(n)
					lo, up := p.Bounds(j)
					undo = append(undo, edit{j, lo, up})
					x := lo
					if last.Status == Optimal {
						x = math.Min(up, math.Max(lo, math.Round(last.X[j])))
					}
					action := rng.Intn(5)
					if lo == up {
						action = 3 + rng.Intn(2) // a fixed column is always widened again
					}
					switch action {
					case 0: // fix where the last solution rounds to
						p.SetBounds(j, x, x)
					case 1: // tighten from above
						p.SetBounds(j, lo, x)
					case 2: // tighten from below
						p.SetBounds(j, x, up)
					case 3: // relax half-way back to the root box
						p.SetBounds(j, (lo+rootLo[j])/2, (up+rootUp[j])/2)
					default: // re-widen to the root box
						p.SetBounds(j, rootLo[j], rootUp[j])
					}
				}
				flippedBefore := ws.Stats().FlippedColumns
				warm := p.SolveWith(context.Background(), opt, ws)
				flipped := ws.Stats().FlippedColumns - flippedBefore
				cold := p.SolveWith(context.Background(), Options{RefactorEvery: refactorEvery}, NewWorkspace())
				if !sameOutcome(warm, cold) {
					t.Fatalf("RefactorEvery=%d seed %d step %d: warm %v %.12g (flipped %d, fallback %v), cold %v %.12g",
						refactorEvery, seed, step, warm.Status, warm.Objective, flipped,
						warm.ColdFallback, cold.Status, cold.Objective)
				}
				flips += flipped
				if warm.ColdFallback != ColdNone {
					fallbacks[warm.ColdFallback]++
					want.ColdFallbacks[warm.ColdFallback]++
				}
				if warm.WarmStarted {
					want.WarmHits++
				}
				want.Solves++
				want.Iterations += warm.Iterations
				if warm.Status != Optimal {
					// Step back out of the infeasible box, so the sequence
					// goes on editing a problem that has solutions.
					for i := len(undo) - 1; i >= 0; i-- {
						p.SetBounds(undo[i].j, undo[i].lo, undo[i].up)
					}
					continue
				}
				last = warm
			}
			got := ws.Stats()
			if got.Refactorizations == 0 || got.WorkspaceReuses != 12 {
				t.Fatalf("RefactorEvery=%d seed %d: %d refactorizations, %d reuses in 13 solves",
					refactorEvery, seed, got.Refactorizations, got.WorkspaceReuses)
			}
			want.WorkspaceReuses, want.IterLimited = got.WorkspaceReuses, got.IterLimited
			want.DualIterations, want.FlippedColumns = got.DualIterations, got.FlippedColumns
			want.Refactorizations, want.UpdateEtas = got.Refactorizations, got.UpdateEtas
			want.FillIns, want.SingularRepairs = got.FillIns, got.SingularRepairs
			want.DegenerateSteps, want.BlandIters = got.DegenerateSteps, got.BlandIters
			want.DualRefreshes, want.MaxDualDrift = got.DualRefreshes, got.MaxDualDrift
			want.CertifiedInfeasible = got.CertifiedInfeasible
			if got != want {
				t.Fatalf("RefactorEvery=%d seed %d: workspace counted %+v, its Solutions add up to %+v",
					refactorEvery, seed, got, want)
			}
		}
		if flips == 0 {
			t.Fatalf("RefactorEvery=%d: no solve flipped a column; the edit sequences no longer reach the repair", refactorEvery)
		}
		t.Logf("RefactorEvery=%d: 1440 warm solves flipped %d columns; cold fallbacks: %v", refactorEvery, flips, fallbacks)
	}
}

// TestColdFallbackReasons drives the two cases the flip cannot settle on its
// own — a wrong-priced column with no bound to flip to, which a cost shift
// holds out of the dual pass, and a repair past its budget, which falls back
// cold — and checks each answers correctly and is reported as what it was.
func TestColdFallbackReasons(t *testing.T) {
	t.Run("no finite bound to flip to", func(t *testing.T) {
		var p Problem
		x := p.AddVar(-1, 0, 0) // fixed for the first solve
		y := p.AddVar(1, 0, Inf)
		p.AddRow([]Nonzero{{x, 1}, {y, -1}}, LE, 4)
		ws := NewWorkspace()
		opt := Options{ReuseBasis: true}
		if st := p.SolveWith(context.Background(), opt, ws).Status; st != Optimal {
			t.Fatalf("first solve: %v", st)
		}
		p.SetBounds(x, 0, Inf) // x now prices out wrong at 0 and has no upper bound
		sol := p.SolveWith(context.Background(), opt, ws)
		if sol.ColdFallback != ColdNone || !sol.WarmStarted {
			t.Fatalf("ColdFallback=%v WarmStarted=%v, want the warm start to hold", sol.ColdFallback, sol.WarmStarted)
		}
		if got := ws.Stats().CostShifts; got != 1 {
			t.Fatalf("CostShifts=%d, want 1 (x)", got)
		}
		if sol.Status != Optimal || !approx(sol.Objective, -4) {
			t.Fatalf("warm solve answered %v %v, want optimal -4", sol.Status, sol.Objective)
		}
	})

	t.Run("repair budget overrun", func(t *testing.T) {
		// One row, ten unit boxes, costs 1..10: moving the right-hand side
		// from 0.5 to 5.5 walks the dual simplex through six bases, one
		// pivot each, against a budget of warmRepairBudget·m = 2.
		var p Problem
		var row []Nonzero
		for j := 0; j < 10; j++ {
			row = append(row, Nonzero{p.AddVar(float64(j+1), 0, 1), 1})
		}
		p.AddRow(row, EQ, 0.5)
		ws := NewWorkspace()
		opt := Options{ReuseBasis: true}
		if st := p.SolveWith(context.Background(), opt, ws).Status; st != Optimal {
			t.Fatalf("first solve: %v", st)
		}
		p.SetRHS(0, 5.5)
		sol := p.SolveWith(context.Background(), opt, ws)
		if sol.ColdFallback != ColdBudget || sol.WarmStarted {
			t.Fatalf("ColdFallback=%v WarmStarted=%v, want %v from a cold solve",
				sol.ColdFallback, sol.WarmStarted, ColdBudget)
		}
		if sol.Status != Optimal || !approx(sol.Objective, 1+2+3+4+5+0.5*6) {
			t.Fatalf("cold fallback answered %v %v, want optimal 18", sol.Status, sol.Objective)
		}
		if sol.Iterations <= warmRepairBudget {
			t.Fatalf("Iterations=%d does not include the abandoned repair's %d pivots", sol.Iterations, warmRepairBudget)
		}
	})
}
