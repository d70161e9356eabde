package lp

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

const eps = 1e-6

func approx(a, b float64) bool { return math.Abs(a-b) <= eps*(1+math.Abs(a)+math.Abs(b)) }

// solveCold solves p from scratch on a new workspace.
func solveCold(p *Problem) Solution {
	return p.SolveWith(context.Background(), Options{}, NewWorkspace())
}

// solveOn solves p on ws and returns the solution with the basis it ended
// on: the one the workspace just retained, nil when it retained none (the
// solve did not end optimal and artificial-free).
func solveOn(p *Problem, ws *Workspace, opt Options) (Solution, *Basis) {
	sol := p.SolveWith(context.Background(), opt, ws)
	if !ws.liveIsGood {
		return sol, nil
	}
	return sol, ws.Basis()
}

func solveOK(t *testing.T, p *Problem) Solution {
	t.Helper()
	sol := solveCold(p)
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	return sol
}

func TestTrivialBounds(t *testing.T) {
	var p Problem
	x := p.AddVar(1, 2, 10) // minimize x in [2,10] → 2
	sol := solveOK(t, &p)
	if !approx(sol.X[x], 2) || !approx(sol.Objective, 2) {
		t.Fatalf("got x=%v obj=%v, want 2", sol.X[x], sol.Objective)
	}
}

func TestMaximizeViaNegation(t *testing.T) {
	var p Problem
	x := p.AddVar(-1, 0, 7) // maximize x ⇔ minimize -x
	sol := solveOK(t, &p)
	if !approx(sol.X[x], 7) {
		t.Fatalf("got x=%v, want 7", sol.X[x])
	}
}

func TestSimpleLE(t *testing.T) {
	// max 3x + 2y s.t. x+y ≤ 4, x+3y ≤ 6, x,y ≥ 0 → x=4, y=0, obj 12.
	var p Problem
	x := p.AddVar(-3, 0, Inf)
	y := p.AddVar(-2, 0, Inf)
	p.AddRow([]Nonzero{{x, 1}, {y, 1}}, LE, 4)
	p.AddRow([]Nonzero{{x, 1}, {y, 3}}, LE, 6)
	sol := solveOK(t, &p)
	if !approx(sol.Objective, -12) {
		t.Fatalf("obj=%v, want -12 (x=%v y=%v)", sol.Objective, sol.X[x], sol.X[y])
	}
}

func TestEqualityAndGE(t *testing.T) {
	// min x + y s.t. x + y = 10, x ≥ 3, y ≥ 2 → obj 10.
	var p Problem
	x := p.AddVar(1, 3, Inf)
	y := p.AddVar(1, 2, Inf)
	p.AddRow([]Nonzero{{x, 1}, {y, 1}}, EQ, 10)
	sol := solveOK(t, &p)
	if !approx(sol.Objective, 10) {
		t.Fatalf("obj=%v, want 10", sol.Objective)
	}
	if sol.X[x] < 3-eps || sol.X[y] < 2-eps {
		t.Fatalf("bounds violated: x=%v y=%v", sol.X[x], sol.X[y])
	}
}

func TestGERow(t *testing.T) {
	// min 2x + 3y s.t. x + y ≥ 5, x ≤ 2 → x=2, y=3, obj 13.
	var p Problem
	x := p.AddVar(2, 0, 2)
	y := p.AddVar(3, 0, Inf)
	p.AddRow([]Nonzero{{x, 1}, {y, 1}}, GE, 5)
	sol := solveOK(t, &p)
	if !approx(sol.Objective, 13) {
		t.Fatalf("obj=%v, want 13", sol.Objective)
	}
}

func TestInfeasible(t *testing.T) {
	var p Problem
	x := p.AddVar(1, 0, 1)
	p.AddRow([]Nonzero{{x, 1}}, GE, 5)
	sol := solveCold(&p)
	if sol.Status != Infeasible {
		t.Fatalf("status=%v, want infeasible", sol.Status)
	}
}

func TestInfeasibleEquality(t *testing.T) {
	var p Problem
	x := p.AddVar(0, 0, 10)
	y := p.AddVar(0, 0, 10)
	p.AddRow([]Nonzero{{x, 1}, {y, 1}}, EQ, 5)
	p.AddRow([]Nonzero{{x, 1}, {y, 1}}, EQ, 7)
	sol := solveCold(&p)
	if sol.Status != Infeasible {
		t.Fatalf("status=%v, want infeasible", sol.Status)
	}
}

func TestUnbounded(t *testing.T) {
	var p Problem
	p.AddVar(-1, 0, Inf) // maximize x with no constraint
	sol := solveCold(&p)
	if sol.Status != Unbounded {
		t.Fatalf("status=%v, want unbounded", sol.Status)
	}
}

func TestBoundedByUpperOnly(t *testing.T) {
	// max x + y s.t. x + 2y ≤ 14, 3x - y ≥ 0, x - y ≤ 2.
	// Optimum at x=6, y=4, obj 10.
	var p Problem
	x := p.AddVar(-1, 0, Inf)
	y := p.AddVar(-1, 0, Inf)
	p.AddRow([]Nonzero{{x, 1}, {y, 2}}, LE, 14)
	p.AddRow([]Nonzero{{x, 3}, {y, -1}}, GE, 0)
	p.AddRow([]Nonzero{{x, 1}, {y, -1}}, LE, 2)
	sol := solveOK(t, &p)
	if !approx(sol.Objective, -10) {
		t.Fatalf("obj=%v, want -10", sol.Objective)
	}
	if !approx(sol.X[x], 6) || !approx(sol.X[y], 4) {
		t.Fatalf("x=%v y=%v, want 6,4", sol.X[x], sol.X[y])
	}
}

func TestDegenerate(t *testing.T) {
	// Classic degenerate LP; must still terminate at optimum.
	// min -0.75x4 + 150x5 - 0.02x6 + 6x7 subject to Beale's cycling example.
	var p Problem
	x4 := p.AddVar(-0.75, 0, Inf)
	x5 := p.AddVar(150, 0, Inf)
	x6 := p.AddVar(-0.02, 0, Inf)
	x7 := p.AddVar(6, 0, Inf)
	p.AddRow([]Nonzero{{x4, 0.25}, {x5, -60}, {x6, -0.04}, {x7, 9}}, LE, 0)
	p.AddRow([]Nonzero{{x4, 0.5}, {x5, -90}, {x6, -0.02}, {x7, 3}}, LE, 0)
	p.AddRow([]Nonzero{{x6, 1}}, LE, 1)
	sol := solveOK(t, &p)
	if !approx(sol.Objective, -0.05) {
		t.Fatalf("obj=%v, want -0.05", sol.Objective)
	}
}

func TestFixedVariable(t *testing.T) {
	var p Problem
	x := p.AddVar(1, 5, 5) // fixed at 5
	y := p.AddVar(1, 0, Inf)
	p.AddRow([]Nonzero{{x, 1}, {y, 1}}, GE, 8)
	sol := solveOK(t, &p)
	if !approx(sol.X[x], 5) || !approx(sol.X[y], 3) {
		t.Fatalf("x=%v y=%v, want 5,3", sol.X[x], sol.X[y])
	}
}

func TestDuplicateCoefficientsSummed(t *testing.T) {
	var p Problem
	x := p.AddVar(-1, 0, Inf)
	p.AddRow([]Nonzero{{x, 1}, {x, 1}}, LE, 10) // 2x ≤ 10
	sol := solveOK(t, &p)
	if !approx(sol.X[x], 5) {
		t.Fatalf("x=%v, want 5", sol.X[x])
	}
}

func TestNegativeRHS(t *testing.T) {
	// min x s.t. -x ≤ -3 (i.e. x ≥ 3).
	var p Problem
	x := p.AddVar(1, 0, Inf)
	p.AddRow([]Nonzero{{x, -1}}, LE, -3)
	sol := solveOK(t, &p)
	if !approx(sol.X[x], 3) {
		t.Fatalf("x=%v, want 3", sol.X[x])
	}
}

func TestShiftedLowerBounds(t *testing.T) {
	// Variables with nonzero lower bounds interact with equality rows.
	var p Problem
	x := p.AddVar(1, 10, 20)
	y := p.AddVar(2, -5, 5)
	p.AddRow([]Nonzero{{x, 1}, {y, 1}}, EQ, 12)
	sol := solveOK(t, &p)
	// min x + 2y with x ∈ [10,20], y ∈ [-5,5], x+y=12 → x=17, y=-5, obj 7.
	if !approx(sol.Objective, 7) {
		t.Fatalf("obj=%v (x=%v, y=%v), want 7", sol.Objective, sol.X[x], sol.X[y])
	}
}

func TestTransportation(t *testing.T) {
	// 2 supplies × 3 demands; verify against hand-computed optimum.
	// supply: 30, 40; demand: 20, 25, 25; cost matrix rows {8,6,10},{9,12,13}.
	var p Problem
	c := [][]float64{{8, 6, 10}, {9, 12, 13}}
	v := make([][]int, 2)
	for i := range v {
		v[i] = make([]int, 3)
		for j := range v[i] {
			v[i][j] = p.AddVar(c[i][j], 0, Inf)
		}
	}
	supply := []float64{30, 40}
	demand := []float64{20, 25, 25}
	for i := 0; i < 2; i++ {
		p.AddRow([]Nonzero{{v[i][0], 1}, {v[i][1], 1}, {v[i][2], 1}}, LE, supply[i])
	}
	for j := 0; j < 3; j++ {
		p.AddRow([]Nonzero{{v[0][j], 1}, {v[1][j], 1}}, EQ, demand[j])
	}
	sol := solveOK(t, &p)
	// Optimal: x02=5? Compute: cheapest for d1 is s0 (6): 25 from s0. d0: s0 has
	// 5 left at 8, rest 15 from s1 at 9. d2: s0 10 vs s1 13 → s0 exhausted; use
	// remaining s0 (0) ... total = 25*6+5*8+15*9+25*13 = 150+40+135+325=650.
	// Alternative: d2 from s0 (10) 5 units, d0 all 20 from s1: 25*6+5*10+20*9+20*13 = 640.
	if sol.Objective > 650+eps {
		t.Fatalf("obj=%v, expected ≤ 650", sol.Objective)
	}
	// Verify feasibility of returned point.
	for j := 0; j < 3; j++ {
		got := sol.X[v[0][j]] + sol.X[v[1][j]]
		if !approx(got, demand[j]) {
			t.Fatalf("demand %d: got %v want %v", j, got, demand[j])
		}
	}
	for i := 0; i < 2; i++ {
		got := sol.X[v[i][0]] + sol.X[v[i][1]] + sol.X[v[i][2]]
		if got > supply[i]+eps {
			t.Fatalf("supply %d exceeded: %v > %v", i, got, supply[i])
		}
	}
}

func TestIterLimit(t *testing.T) {
	var p Problem
	x := p.AddVar(-1, 0, Inf)
	y := p.AddVar(-1, 0, Inf)
	p.AddRow([]Nonzero{{x, 1}, {y, 1}}, LE, 10)
	defer func(n int) { iterLimit = n }(iterLimit)
	iterLimit = 1
	sol := solveCold(&p)
	if sol.Status != IterLimit && sol.Status != Optimal {
		t.Fatalf("status=%v, want iteration-limit or optimal", sol.Status)
	}
}

// buildRandomFeasible constructs an LP with a known feasible point so the
// solver's result can be checked for feasibility and objective dominance.
func buildRandomFeasible(rng *rand.Rand, nVars, nRows int) (*Problem, []float64) {
	p := &Problem{}
	point := make([]float64, nVars)
	for j := 0; j < nVars; j++ {
		up := 1 + rng.Float64()*9
		p.AddVar(rng.Float64()*10-5, 0, up)
		point[j] = rng.Float64() * up
	}
	for i := 0; i < nRows; i++ {
		var row []Nonzero
		lhs := 0.0
		for j := 0; j < nVars; j++ {
			if rng.Float64() < 0.4 {
				c := rng.Float64()*4 - 2
				row = append(row, Nonzero{j, c})
				lhs += c * point[j]
			}
		}
		if len(row) == 0 {
			continue
		}
		switch rng.Intn(3) {
		case 0:
			p.AddRow(row, LE, lhs+rng.Float64())
		case 1:
			p.AddRow(row, GE, lhs-rng.Float64())
		default:
			p.AddRow(row, EQ, lhs)
		}
	}
	return p, point
}

func feasible(p *Problem, x []float64, tol float64) bool {
	for j := range x {
		if x[j] < p.lo[j]-tol || x[j] > p.up[j]+tol {
			return false
		}
	}
	for i, row := range p.rows {
		lhs := 0.0
		for _, nz := range row {
			lhs += nz.Value * x[nz.Index]
		}
		switch p.senses[i] {
		case LE:
			if lhs > p.rhs[i]+tol {
				return false
			}
		case GE:
			if lhs < p.rhs[i]-tol {
				return false
			}
		case EQ:
			if math.Abs(lhs-p.rhs[i]) > tol {
				return false
			}
		}
	}
	return true
}

// TestQuickRandomFeasible is a property-based test: for random LPs built
// around a known feasible point, the solver must (a) report optimal,
// (b) return a feasible point, and (c) not be worse than the known point.
func TestQuickRandomFeasible(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nVars := 2 + rng.Intn(12)
		nRows := 1 + rng.Intn(10)
		p, point := buildRandomFeasible(rng, nVars, nRows)
		sol := solveCold(p)
		if sol.Status != Optimal {
			t.Logf("seed %d: status %v", seed, sol.Status)
			return false
		}
		if !feasible(p, sol.X, 1e-5) {
			t.Logf("seed %d: infeasible solution", seed)
			return false
		}
		ref := 0.0
		for j, c := range p.cost {
			ref += c * point[j]
		}
		if sol.Objective > ref+1e-5 {
			t.Logf("seed %d: obj %v worse than known feasible %v", seed, sol.Objective, ref)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDualityGapZero verifies strong duality on random LPs by comparing
// against a brute-force vertex enumeration for tiny instances.
func TestQuickScaleInvariance(t *testing.T) {
	// Scaling all costs by a positive constant must scale the objective and
	// keep the argmin feasible set identical.
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p, _ := buildRandomFeasible(rng, 2+rng.Intn(8), 1+rng.Intn(6))
		sol1 := solveCold(p)
		if sol1.Status != Optimal {
			return true // skip unbounded/degenerate cases here
		}
		p2 := &Problem{}
		for j := range p.cost {
			p2.AddVar(p.cost[j]*3, p.lo[j], p.up[j])
		}
		for i := range p.rows {
			p2.AddRow(p.rows[i], p.senses[i], p.rhs[i])
		}
		sol2 := solveCold(p2)
		if sol2.Status != Optimal {
			return false
		}
		return math.Abs(sol2.Objective-3*sol1.Objective) < 1e-5*(1+math.Abs(sol1.Objective))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMediumScale(t *testing.T) {
	if testing.Short() {
		t.Skip("medium-scale LP in -short mode")
	}
	rng := rand.New(rand.NewSource(7))
	p, point := buildRandomFeasible(rng, 200, 80)
	sol := solveCold(p)
	if sol.Status != Optimal {
		t.Fatalf("status=%v", sol.Status)
	}
	if !feasible(p, sol.X, 1e-4) {
		t.Fatal("infeasible solution at medium scale")
	}
	ref := 0.0
	for j, c := range p.cost {
		ref += c * point[j]
	}
	if sol.Objective > ref+1e-4 {
		t.Fatalf("objective %v worse than known feasible %v", sol.Objective, ref)
	}
}

func TestSenseString(t *testing.T) {
	for s, want := range map[Sense]string{LE: "<=", EQ: "==", GE: ">="} {
		if s.String() != want {
			t.Errorf("Sense(%d).String() = %q, want %q", s, s.String(), want)
		}
	}
	if Status(99).String() == "" || Sense(99).String() == "" {
		t.Error("unknown enum String must be non-empty")
	}
}

func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{
		Optimal: "optimal", Infeasible: "infeasible",
		Unbounded: "unbounded", IterLimit: "iteration-limit",
	} {
		if s.String() != want {
			t.Errorf("Status.String() = %q, want %q", s.String(), want)
		}
	}
}

func TestAddVarPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on infinite lower bound")
		}
	}()
	var p Problem
	p.AddVar(0, math.Inf(-1), 0)
}

func TestAddRowPanicsUnknownVar(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on unknown variable")
		}
	}()
	var p Problem
	p.AddRow([]Nonzero{{3, 1}}, LE, 1)
}

func BenchmarkSolveTransportation(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	p, _ := buildRandomFeasible(rng, 120, 50)
	ws := NewWorkspace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sol := p.SolveWith(context.Background(), Options{}, ws); sol.Status != Optimal {
			b.Fatalf("status=%v", sol.Status)
		}
	}
}
