package mip

import (
	"context"
	"math"
	"testing"
	"time"
)

// TestMarkPenaltyExposesViolation: without MarkPenalty the repair heuristic
// sees a slack-satisfied row and leaves it; with it, the violation is
// visible and gets repaired. Both solves must end slack-free here because
// free capacity exists, but the penalty-marked variant must do it through
// the primal heuristic (few nodes).
func TestMarkPenaltyExposesViolation(t *testing.T) {
	build := func(mark bool) (*Model, Var, Var) {
		m := NewModel()
		x := m.AddIntVar("x", 0, 0, 10)
		s := m.AddVar("s", 1000, 0, 5)
		if mark {
			m.MarkPenalty(s)
		}
		m.AddConstr("cap", []Term{{x, 1}, {s, 1}}, GE, 5)
		m.AddConstr("assign", []Term{{x, 1}}, LE, 10)
		m.SetInitial([]float64{0, 5})
		return m, x, s
	}
	m, x, s := build(true)
	r := m.Solve(context.Background(), Options{MaxNodes: 10})
	if r.Status != Optimal && r.Status != Feasible {
		t.Fatalf("status %v", r.Status)
	}
	if r.X[s] > 1e-6 || r.X[x] < 5 {
		t.Fatalf("penalty not repaired: x=%v s=%v", r.X[x], r.X[s])
	}
}

// TestWarmAnchorKeepsInitial: with two symmetric optima, the warm-start
// anchor must prefer the one matching the initial point (no gratuitous
// "moves").
func TestWarmAnchorKeepsInitial(t *testing.T) {
	m := NewModel()
	a := m.AddIntVar("a", 0, 0, 10)
	b := m.AddIntVar("b", 0, 0, 10)
	// a + b = 9 with no cost difference: any split is optimal. LP vertices
	// land on bounds; the initial point marks the incumbent split.
	m.AddConstr("sum", []Term{{a, 1}, {b, 1}}, EQ, 9)
	m.SetInitial([]float64{4, 5})
	r := m.Solve(context.Background(), Options{})
	if r.Status != Optimal {
		t.Fatalf("status %v", r.Status)
	}
	if r.X[a]+r.X[b] != 9 {
		t.Fatalf("constraint broken: %v", r.X)
	}
}

// TestDiveRollback: constructs a model where rounding several variables at
// once overshoots a coupled window, exercising the dive's batch rollback.
func TestDiveRollback(t *testing.T) {
	m := NewModel()
	var terms []Term
	for i := 0; i < 12; i++ {
		v := m.AddIntVar("x", -1, 0, 1) // maximize count
		terms = append(terms, Term{v, 1})
	}
	// A tight two-sided window forces careful rounding: sum in [5.4, 6.4].
	m.AddConstr("win-hi", terms, LE, 6.4)
	m.AddConstr("win-lo", terms, GE, 5.4)
	r := m.Solve(context.Background(), Options{MaxNodes: 50})
	if r.Status != Optimal && r.Status != Feasible {
		t.Fatalf("status %v", r.Status)
	}
	sum := 0.0
	for _, x := range r.X {
		sum += x
	}
	if sum != 6 {
		t.Fatalf("sum=%v, want 6 (integral point in window, maximized)", sum)
	}
}

// TestTimeLimitRespected: a generous assignment model whose ctx deadline has
// already passed stops before its first node, and reports the stop as a
// spent budget, never as Cancelled. The deadline is fixed in the past, so the
// test neither sleeps nor measures real elapsed time.
func TestTimeLimitRespected(t *testing.T) {
	m := NewModel()
	var terms []Term
	for i := 0; i < 40; i++ {
		v := m.AddIntVar("x", float64(i%7)-3, 0, 3)
		terms = append(terms, Term{v, float64(1 + i%4)})
	}
	m.AddConstr("cap", terms, LE, 50)
	ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()
	r := m.Solve(ctx, Options{})
	switch r.Status {
	case Feasible, NoSolution:
	default:
		t.Fatalf("status %v, want feasible or no-solution", r.Status)
	}
	if r.Nodes != 0 {
		t.Fatalf("explored %d nodes past the deadline", r.Nodes)
	}
}

// TestGapReporting: on a solve stopped early, Bound ≤ Objective and Gap is
// their difference.
func TestGapReporting(t *testing.T) {
	m := NewModel()
	var terms []Term
	for i := 0; i < 25; i++ {
		v := m.AddIntVar("x", -(1 + float64(i%5)*0.37), 0, 1)
		terms = append(terms, Term{v, 1 + float64(i%3)*0.61})
	}
	m.AddConstr("w", terms, LE, 11.5)
	r := m.Solve(context.Background(), Options{MaxNodes: 3})
	if r.Status == Optimal || r.Status == Feasible {
		if r.Bound > r.Objective+1e-9 {
			t.Fatalf("bound %v above objective %v", r.Bound, r.Objective)
		}
		if g := r.Gap(); math.Abs(g-(r.Objective-r.Bound)) > 1e-9 && g != 0 {
			t.Fatalf("gap %v inconsistent", g)
		}
	}
}

// TestEnvelopeWithCapacity is the miniature RAS capacity pattern: counts
// across three domains, envelope over domain sums, capacity must survive
// the envelope subtraction.
func TestEnvelopeWithCapacity(t *testing.T) {
	m := NewModel()
	doms := make([]Var, 3)
	var groups [][]Term
	var total []Term
	for d := range doms {
		doms[d] = m.AddIntVar("n", 0, 0, 10)
		groups = append(groups, []Term{{doms[d], 1}})
		total = append(total, Term{doms[d], 1})
	}
	z, _ := m.AddUpperEnvelope("z", groups, 3)
	cap := append(append([]Term{}, total...), Term{z, -1})
	m.AddConstr("cap", cap, GE, 10)
	r := m.Solve(context.Background(), Options{MaxNodes: 200})
	if r.Status != Optimal && r.Status != Feasible {
		t.Fatalf("status %v", r.Status)
	}
	sum, maxd := 0.0, 0.0
	for _, d := range doms {
		sum += r.X[d]
		if r.X[d] > maxd {
			maxd = r.X[d]
		}
	}
	if sum-maxd < 10-1e-6 {
		t.Fatalf("capacity violated: sum %v, max domain %v", sum, maxd)
	}
	// The optimum spreads 5/5/5: losing any domain leaves 10.
	if maxd > 5+1e-6 {
		t.Fatalf("envelope not minimized: max domain %v, want 5", maxd)
	}
}

// TestSolveTwiceSameModelDifferentBounds: bounds set via the problem before
// the second solve must be respected and then restored by Solve itself.
func TestBoundsRestoredAfterSolve(t *testing.T) {
	m := NewModel()
	x := m.AddIntVar("x", -1, 0, 9)
	m.AddConstr("c", []Term{{x, 1}}, LE, 9)
	r1 := m.Solve(context.Background(), Options{})
	if r1.X[x] != 9 {
		t.Fatalf("first solve x=%v", r1.X[x])
	}
	r2 := m.Solve(context.Background(), Options{})
	if r2.X[x] != 9 {
		t.Fatalf("bounds leaked across solves: x=%v", r2.X[x])
	}
}
