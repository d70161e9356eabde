package lp

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// checkKernel installs the test hook on ws: after every basis change it holds
// the iteration kernel to its references. The maintained reduced costs must be
// within 1e-9 of a fresh recomputation, the row-wise pivot row must equal the
// column dot products bit for bit, and the sparse-RHS solves must equal the
// dense routines to 1e-12 on the factorization as the pivot left it.
func checkKernel(t testing.TB, ws *Workspace) {
	calls := 0
	ws.afterPivot = func() {
		s := ws
		calls++
		m := s.m
		cb, y := make([]float64, m), make([]float64, m)
		for i, c := range s.basis {
			cb[i] = s.costOf(c)
		}
		s.fact.btran(y, cb)
		for j := 0; j < s.artStart; j++ {
			fresh, dot := 0.0, 0.0
			for _, nz := range s.cols[j] {
				dot += s.rho[nz.Index] * nz.Value
			}
			if s.inRow[j] < 0 {
				fresh = s.costOf(j)
				for _, nz := range s.cols[j] {
					fresh -= y[nz.Index] * nz.Value
				}
			}
			if math.Abs(s.d[j]-fresh) > 1e-9*(1+math.Abs(fresh)) {
				t.Fatalf("pivot %d: maintained d[%d] = %.17g, fresh %.17g (age %d)", calls, j, s.d[j], fresh, s.dualAge)
			}
			if dot != s.alpha[j] {
				t.Fatalf("pivot %d: row-wise alpha[%d] = %.17g, column dot product %.17g", calls, j, s.alpha[j], dot)
			}
		}

		unit, dense, sparse := make([]float64, m), make([]float64, m), make([]float64, m)
		slot := calls % m
		unit[slot] = 1
		s.fact.btran(dense, unit)
		nz := s.fact.btranRow(sparse, slot, nil)
		checkPattern(t, "btranRow", sparse, dense, nz)
		col := s.cols[calls%s.artStart]
		clear(unit)
		for _, e := range col {
			unit[e.Index] = e.Value
		}
		s.fact.ftranDense(dense, unit)
		nz = s.fact.ftran(sparse, col, nz)
		checkPattern(t, "ftran", sparse, dense, nz)
	}
}

// sparseBoxedLP builds a random sparse LP in which every variable has a finite
// box and a known interior point is feasible.
func sparseBoxedLP(rng *rand.Rand, nVars, nRows int) *Problem {
	p := &Problem{}
	point := make([]float64, nVars)
	for j := range point {
		up := float64(1 + rng.Intn(6))
		p.AddVar(float64(rng.Intn(11)-5), 0, up)
		point[j] = rng.Float64() * up
	}
	for i := 0; i < nRows; i++ {
		var row []Nonzero
		lhs := 0.0
		for k := 0; k < 2+rng.Intn(4); k++ {
			j := rng.Intn(nVars)
			c := float64(1 + rng.Intn(3))
			if rng.Intn(2) == 0 {
				c = -c
			}
			row = append(row, Nonzero{j, c}) // duplicates are summed by AddRow
			lhs += c * point[j]
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
	return p
}

// FuzzKernelMatchesReference drives random sparse boxed LPs — and the LP built
// around the captured RAS basis — through a cold start, a sequence of bound
// edits solved from the retained basis, and a start adopted from an exported
// basis, with the kernel checked after every pivot (checkKernel) and every
// answer compared with a cold solve of the same problem.
func FuzzKernelMatchesReference(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 5, 21, 22, 120} { // flip_test.go's and dual_test.go's edit sequences
		f.Add(seed, false)
	}
	f.Add(int64(1), true)
	f.Fuzz(func(t *testing.T, seed int64, fixture bool) {
		rng := rand.New(rand.NewSource(seed))
		var p *Problem
		if fixture {
			p = fixtureLP(t, seed)
		} else {
			p = sparseBoxedLP(rng, 4+rng.Intn(28), 2+rng.Intn(16))
		}
		n := p.NumVars()
		rootLo, rootUp := make([]float64, n), make([]float64, n)
		for j := 0; j < n; j++ {
			rootLo[j], rootUp[j] = p.Bounds(j)
		}
		ctx := context.Background()
		agree := func(what string, got Solution) {
			t.Helper()
			cold := p.SolveWith(ctx, Options{}, NewWorkspace())
			if !sameOutcome(got, cold) {
				t.Fatalf("%s: %v %.12g (warm=%v fallback=%v), cold solve %v %.12g",
					what, got.Status, got.Objective, got.WarmStarted, got.ColdFallback, cold.Status, cold.Objective)
			}
		}

		ws := NewWorkspace()
		checkKernel(t, ws)
		opt := Options{ReuseBasis: true}
		last, exported := solveOn(p, ws, opt)
		agree("cold start", last)

		edits := 6
		if fixture {
			edits = 3
		}
		for step := 0; step < edits; step++ {
			for k := 0; k <= rng.Intn(4); k++ {
				j := rng.Intn(n)
				lo, up := p.Bounds(j)
				x := lo
				if last.Status == Optimal {
					x = math.Min(up, math.Max(lo, math.Round(last.X[j])))
				}
				switch rng.Intn(4) {
				case 0:
					p.SetBounds(j, x, x)
				case 1:
					p.SetBounds(j, lo, x)
				case 2:
					p.SetBounds(j, x, up)
				default:
					p.SetBounds(j, rootLo[j], rootUp[j])
				}
			}
			sol := p.SolveWith(ctx, opt, ws)
			agree("retained basis", sol)
			if sol.Status == Optimal {
				last = sol
			} else {
				for j := 0; j < n; j++ {
					p.SetBounds(j, rootLo[j], rootUp[j])
				}
			}
		}

		if exported != nil {
			adopter := NewWorkspace()
			checkKernel(t, adopter)
			agree("adopted start", p.SolveWith(ctx, Options{Start: exported}, adopter))
		}
		if st := ws.Stats(); st.MaxDualDrift > 1e-9 {
			t.Fatalf("MaxDualDrift = %g", st.MaxDualDrift)
		}
	})
}

// TestCertifiedInfeasible: an infeasibility the dual simplex runs into after a
// branching-style bound change is returned on the strength of its Farkas
// certificate, with no cold re-solve — and agrees with one — unless the
// certificate is void: here, through a nonbasic column with no upper bound
// whose pivot-row entry is too small for the ratio test but not zero.
func TestCertifiedInfeasible(t *testing.T) {
	build := func(withRay bool) (*Problem, int) {
		var p Problem
		x := p.AddVar(1, 0, 2)
		y := p.AddVar(2, 0, 2)
		row := []Nonzero{{x, 1}, {y, 1}}
		if withRay {
			row = append(row, Nonzero{p.AddVar(0, 0, Inf), 1e-10})
		}
		p.AddRow(row, EQ, 3)
		return &p, x
	}
	ctx := context.Background()
	opt := Options{ReuseBasis: true}

	p, x := build(false)
	ws := NewWorkspace()
	if sol := p.SolveWith(ctx, opt, ws); sol.Status != Optimal || !approx(sol.Objective, 4) {
		t.Fatalf("first solve: %v %v, want optimal 4", sol.Status, sol.Objective)
	}
	p.SetBounds(x, 0, 0.5) // x + y <= 2.5 < 3
	sol := p.SolveWith(ctx, opt, ws)
	st := ws.Stats()
	if sol.Status != Infeasible || !sol.WarmStarted || sol.ColdFallback != ColdNone {
		t.Fatalf("branched solve: %v warm=%v fallback=%v, want a warm infeasible", sol.Status, sol.WarmStarted, sol.ColdFallback)
	}
	if st.CertifiedInfeasible != 1 || st.ColdFallbacks.Total() != 0 {
		t.Fatalf("CertifiedInfeasible=%d ColdFallbacks=%v, want 1 and none", st.CertifiedInfeasible, st.ColdFallbacks)
	}
	if cold := p.SolveWith(ctx, Options{}, NewWorkspace()); cold.Status != Infeasible {
		t.Fatalf("cold solve of the certified problem: %v", cold.Status)
	}
	p.SetBounds(x, 0, 2) // and the retained basis still serves
	if sol := p.SolveWith(ctx, opt, ws); sol.Status != Optimal || !sol.WarmStarted || !approx(sol.Objective, 4) {
		t.Fatalf("re-widened solve: %v warm=%v %v", sol.Status, sol.WarmStarted, sol.Objective)
	}

	p, x = build(true)
	ws = NewWorkspace()
	if sol := p.SolveWith(ctx, opt, ws); sol.Status != Optimal {
		t.Fatalf("first solve with the unbounded column: %v", sol.Status)
	}
	p.SetBounds(x, 0, 0.5)
	sol = p.SolveWith(ctx, opt, ws)
	st = ws.Stats()
	if sol.ColdFallback != ColdInfeasible || sol.WarmStarted || st.CertifiedInfeasible != 0 {
		t.Fatalf("void certificate: fallback=%v warm=%v certified=%d, want a cold re-solve",
			sol.ColdFallback, sol.WarmStarted, st.CertifiedInfeasible)
	}
}

// TestNearTieBreaksToLowestIndex: two entering candidates of a dual pivot
// whose ratios differ in the last bit tie, and the lower index enters
// whichever of the two is numerically smaller.
func TestNearTieBreaksToLowestIndex(t *testing.T) {
	below := math.Nextafter(0.3, 0)
	for _, costs := range [][2]float64{{0.3, below}, {below, 0.3}, {0.3, 0.3}} {
		var p Problem
		x0 := p.AddVar(0, 0, 1)
		x1 := p.AddVar(costs[0], 0, 1)
		x2 := p.AddVar(costs[1], 0, 1)
		p.AddRow([]Nonzero{{x0, 1}, {x1, 1}, {x2, 1}}, EQ, 0.5)
		ws := NewWorkspace()
		opt := Options{ReuseBasis: true}
		if sol := p.SolveWith(context.Background(), opt, ws); sol.Status != Optimal || !approx(sol.X[x0], 0.5) {
			t.Fatalf("costs %v: first solve %v, x0 = %v", costs, sol.Status, sol.X[x0])
		}
		p.SetBounds(x0, 0, 0.2) // x0 leaves; x1 and x2 price out at 0.3 and 0.3 less one ulp
		before := ws.Stats().DualIterations
		sol := p.SolveWith(context.Background(), opt, ws)
		if dualIters := ws.Stats().DualIterations - before; sol.Status != Optimal || dualIters != 1 {
			t.Fatalf("costs %v: %v after %d dual pivots, want optimal after 1", costs, sol.Status, dualIters)
		}
		if !approx(sol.X[x1], 0.3) || !approx(sol.X[x2], 0) {
			t.Fatalf("costs %v: x1 = %v, x2 = %v: the higher index entered", costs, sol.X[x1], sol.X[x2])
		}
	}
}

// TestDantzigTieRule pins chooseEntering's two tiers on a hand-built pricing
// state: violations equal to the last bit go to the lowest index, violations
// that differ only by rounding go round robin.
func TestDantzigTieRule(t *testing.T) {
	var p Problem
	for j := 0; j < 4; j++ {
		p.AddVar(0, 0, 1)
	}
	p.AddRow([]Nonzero{{0, 1}, {1, 1}, {2, 1}, {3, 1}}, EQ, 1)
	ws := NewWorkspace()
	ws.reshape(&p)
	ws.refresh(&p)
	for j := range ws.inRow {
		ws.inRow[j] = -1
	}
	pick := func(d ...float64) int {
		copy(ws.d, d)
		ws.collectViolators()
		return ws.chooseEntering(dantzig)
	}
	if got := pick(-1, -1, -1, -0.5); got != 0 {
		t.Fatalf("exact three-way tie: column %d entered, want 0", got)
	}
	if got := pick(-0.5, -1, -1, -1); got != 1 {
		t.Fatalf("exact tie among 1..3: column %d entered, want 1", got)
	}
	near := -(1 - 1e-12)
	for round, want := range []int{0, 1, 2, 0} {
		if got := pick(-1, near, -1, -0.5); got != want {
			t.Fatalf("rounding-level tie, pick %d: column %d entered, want %d", round, got, want)
		}
	}
	if got := pick(-1, -0.9, -1, -0.5); got != 0 {
		t.Fatalf("a clear runner-up must not start the rotation: column %d entered", got)
	}
}
