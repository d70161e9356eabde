package mip

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// fixedAssignment builds a deterministic assignment model large enough that
// several workers actually get nodes to expand.
func fixedAssignment(t *testing.T, seed int64, n, k int) (*Model, []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m, point := randomAssignment(rng, n, k)
	assigned := 0.0
	for _, v := range point {
		assigned += v
	}
	if int(assigned) != n {
		t.Fatalf("seed %d: greedy point assigned %v of %d tasks; pick another seed", seed, assigned, n)
	}
	if !m.feasibleIntegral(point) {
		t.Fatalf("seed %d: greedy point infeasible; pick another seed", seed)
	}
	return m, point
}

func TestParallelDeterministicObjective(t *testing.T) {
	// Identical objective (within gap tolerance) and structurally valid
	// assignments at every worker count, per-run and across runs.
	var ref Result
	for _, workers := range []int{1, 2, 4} {
		m, _ := fixedAssignment(t, 11, 12, 5)
		r := m.Solve(context.Background(), Options{Workers: workers, MaxNodes: 20000})
		if r.Status != Optimal {
			t.Fatalf("workers=%d: status=%v, want optimal (nodes=%d)", workers, r.Status, r.Nodes)
		}
		if r.Workers != workers {
			t.Fatalf("workers=%d: Result.Workers=%d", workers, r.Workers)
		}
		if !m.feasibleIntegral(r.X) {
			t.Fatalf("workers=%d: solution not feasible/integral", workers)
		}
		if got := m.objective(r.X); !approx(got, r.Objective) {
			t.Fatalf("workers=%d: reported obj %v but point evaluates to %v", workers, r.Objective, got)
		}
		if workers == 1 {
			ref = r
			continue
		}
		// Both runs proved optimality within AbsGap (1e-6 default), so the
		// objectives must agree to within twice that.
		if math.Abs(r.Objective-ref.Objective) > 2e-6 {
			t.Fatalf("workers=%d: obj %v differs from serial %v", workers, r.Objective, ref.Objective)
		}
	}
}

func TestParallelRepeatedSolveSameObjective(t *testing.T) {
	m, _ := fixedAssignment(t, 7, 10, 4)
	r1 := m.Solve(context.Background(), Options{Workers: 4, MaxNodes: 20000})
	r2 := m.Solve(context.Background(), Options{Workers: 4, MaxNodes: 20000})
	if r1.Status != Optimal || r2.Status != Optimal {
		t.Fatalf("status %v / %v, want optimal", r1.Status, r2.Status)
	}
	if math.Abs(r1.Objective-r2.Objective) > 2e-6 {
		t.Fatalf("repeated parallel solve: obj %v then %v", r1.Objective, r2.Objective)
	}
}

func TestParallelStatsPopulated(t *testing.T) {
	m, _ := fixedAssignment(t, 11, 12, 5)
	r := m.Solve(context.Background(), Options{Workers: 2, MaxNodes: 20000})
	if r.Status != Optimal && r.Status != Feasible {
		t.Fatalf("status=%v", r.Status)
	}
	if r.Nodes <= 0 || r.LP.Solves <= 0 {
		t.Fatalf("stats not populated: nodes=%d LP.Solves=%d", r.Nodes, r.LP.Solves)
	}
	if r.IncumbentUpdates <= 0 {
		t.Fatalf("an optimal solve must have published at least one incumbent, got %d", r.IncumbentUpdates)
	}
}

// TestParallelLPStatsSumSearches drives the driver directly so the per-search
// workspaces stay in reach: there is one search per worker, the root search
// among them, and Result.LP must be their sum — each counted by its own
// goroutine with plain ints and read only after the join, which is what the
// race detector checks here — and every counted node solved one LP.
func TestParallelLPStatsSumSearches(t *testing.T) {
	for _, workers := range []int{1, 4} {
		m := generalizedAssignment(7)
		e := newEngine(context.Background(), m, Options{Workers: workers, MaxNodes: 400, AbsGap: 1e-6})
		res := m.branchAndBound(e)
		e.fillStats(&res)
		e.restoreRootBounds()
		if res.Status != Optimal && res.Status != Feasible {
			t.Fatalf("workers=%d: status=%v", workers, res.Status)
		}
		if len(e.searches) != workers {
			t.Fatalf("%d searches at workers=%d, want one per worker", len(e.searches), workers)
		}
		sum := 0
		for _, s := range e.searches {
			sum += s.ws.Stats().Solves
		}
		if res.LP.Solves != sum {
			t.Fatalf("workers=%d: Result.LP.Solves = %d, searches sum to %d", workers, res.LP.Solves, sum)
		}
		if root := e.searches[0].ws.Stats().Solves; root < 1 {
			t.Fatalf("workers=%d: root search solved %d LPs", workers, root)
		}
		if res.LP.Solves < 1+res.Nodes {
			t.Fatalf("workers=%d: %d LP solves for the root and %d nodes", workers, res.LP.Solves, res.Nodes)
		}
	}
}

// hardBinaryModel builds a market-split-style model whose LP relaxation is
// highly fractional, so branch-and-bound runs long enough to cancel
// mid-search. The returned point is feasible by construction.
func hardBinaryModel(seed int64, n, rows int) (*Model, []float64) {
	rng := rand.New(rand.NewSource(seed))
	m := NewModel()
	vars := make([]Var, n)
	point := make([]float64, n)
	for j := 0; j < n; j++ {
		vars[j] = m.AddIntVar("x", rng.Float64(), 0, 1)
		if rng.Intn(2) == 1 {
			point[j] = 1
		}
	}
	for i := 0; i < rows; i++ {
		terms := make([]Term, n)
		rhs := 0.0
		for j := 0; j < n; j++ {
			a := float64(rng.Intn(100))
			terms[j] = Term{vars[j], a}
			rhs += a * point[j]
		}
		m.AddConstr("split", terms, EQ, rhs)
	}
	return m, point
}

func TestParallelCancelReturnsIncumbentNoLeak(t *testing.T) {
	// Slow enough that cancellation lands mid-search; the warm-start point
	// guarantees an incumbent exists from node zero.
	m, point := hardBinaryModel(17, 40, 5)
	m.SetInitial(point)

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	r := m.Solve(ctx, Options{Workers: 4, MaxNodes: 1 << 30})
	elapsed := time.Since(start)

	if r.Status != Cancelled {
		t.Fatalf("status=%v, want cancelled", r.Status)
	}
	if r.X == nil {
		t.Fatalf("no incumbent returned despite warm start")
	}
	if !m.feasibleIntegral(r.X) {
		t.Fatalf("returned incumbent not feasible/integral")
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation not prompt: solve ran %v", elapsed)
	}
	// Every worker must have joined, a single leaked one included. Poll
	// briefly: the cancelling goroutine may take a moment to retire.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before solve, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestParallelBoundsRestoredAfterSolve(t *testing.T) {
	m, _ := fixedAssignment(t, 7, 10, 4)
	type b struct{ lo, up float64 }
	orig := make([]b, m.NumVars())
	for j := range orig {
		orig[j].lo, orig[j].up = m.prob.Bounds(j)
	}
	if r := m.Solve(context.Background(), Options{Workers: 4, MaxNodes: 20000}); r.Status != Optimal {
		t.Fatalf("status=%v", r.Status)
	}
	for j := range orig {
		lo, up := m.prob.Bounds(j)
		if lo != orig[j].lo || up != orig[j].up {
			t.Fatalf("var %d bounds [%v,%v] after solve, want [%v,%v]", j, lo, up, orig[j].lo, orig[j].up)
		}
	}
}

// Regression tests from the serial-assumption bug sweep. The driver shares a
// node's bound changes between sibling nodes and between goroutines, so
// appendChange must never change its input: each child sees its own change
// and its parent's, never its sibling's, and the parent sees neither.
func TestAppendChangeDoesNotAliasParent(t *testing.T) {
	parent := appendChange(nil, boundChange{v: 0, lo: 0, up: 1})
	c1 := appendChange(parent, boundChange{v: 1, lo: 0, up: 0})
	c2 := appendChange(parent, boundChange{v: 2, lo: 1, up: 1})
	const rootLo, rootUp = 0, 5
	for _, c := range []struct {
		name   string
		chain  *boundLink
		v      int
		lo, up float64
	}{
		{"parent", parent, 0, 0, 1}, {"parent", parent, 1, rootLo, rootUp}, {"parent", parent, 2, rootLo, rootUp},
		{"first child", c1, 0, 0, 1}, {"first child", c1, 1, 0, 0}, {"first child", c1, 2, rootLo, rootUp},
		{"second child", c2, 0, 0, 1}, {"second child", c2, 1, rootLo, rootUp}, {"second child", c2, 2, 1, 1},
	} {
		if lo, up := nodeBounds(node{changes: c.chain}, c.v, rootLo, rootUp); lo != c.lo || up != c.up {
			t.Fatalf("%s: x%d in [%v, %v], want [%v, %v]", c.name, c.v, lo, up, c.lo, c.up)
		}
	}
}

func TestSetInitialCopiesCallerSlice(t *testing.T) {
	m := NewModel()
	x := m.AddIntVar("x", -1, 0, 1)
	m.AddConstr("c", []Term{{x, 1}}, LE, 1)
	point := []float64{1}
	m.SetInitial(point)
	point[0] = 123 // caller reuses its buffer; the model must not see this
	r := m.Solve(context.Background(), Options{})
	if r.Status != Optimal || !approx(r.Objective, -1) {
		t.Fatalf("status=%v obj=%v, want optimal -1", r.Status, r.Objective)
	}
	if m.initial[0] != 1 {
		t.Fatalf("SetInitial aliased the caller's slice: %v", m.initial)
	}
}

func TestConcurrentSolvesOnSeparateModels(t *testing.T) {
	// Two models solving at once (each with internal parallelism) must not
	// interfere — guards against hidden package-level mutable state.
	done := make(chan Result, 2)
	for _, seed := range []int64{7, 11} {
		go func(seed int64) {
			rng := rand.New(rand.NewSource(seed))
			m, _ := randomAssignment(rng, 10, 4)
			done <- m.Solve(context.Background(), Options{Workers: 2, MaxNodes: 20000})
		}(seed)
	}
	for i := 0; i < 2; i++ {
		r := <-done
		if r.Status != Optimal && r.Status != Feasible {
			t.Fatalf("concurrent solve %d: status=%v", i, r.Status)
		}
	}
}
