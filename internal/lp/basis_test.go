package lp

import (
	"context"
	"math/rand"
	"testing"
)

// TestBasisPacksStatuses writes a random status on every entry and reads each
// back: two bits per entry, columns before rows, no neighbour disturbed.
func TestBasisPacksStatuses(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const nCols, nRows = 77, 45 // neither a multiple of the 32 statuses in a word
	b := NewBasis(nCols, nRows)
	for j := 0; j < nCols; j++ {
		if b.Col(j) != AtLower {
			t.Fatalf("fresh column %d is %v, want at-lower", j, b.Col(j))
		}
	}
	for i := 0; i < nRows; i++ {
		if b.Row(i) != Basic {
			t.Fatalf("fresh row %d is %v, want basic", i, b.Row(i))
		}
	}
	want := make([]BasisStatus, nCols+nRows)
	for round := 0; round < 3; round++ {
		for _, k := range rng.Perm(len(want)) {
			want[k] = BasisStatus(rng.Intn(3))
			if k < nCols {
				b.SetCol(k, want[k])
			} else {
				b.SetRow(k-nCols, want[k])
			}
		}
		for k, st := range want {
			got := b.Row(k - nCols)
			if k < nCols {
				got = b.Col(k)
			}
			if got != st {
				t.Fatalf("round %d entry %d: %v, want %v", round, k, got, st)
			}
		}
	}
	if got := len(b.bits) * 8; got > (nCols+nRows)/4+8 {
		t.Fatalf("%d statuses take %d bytes", nCols+nRows, got)
	}
}

// TestOfferingRetainedBasisSkipsImport: a caller that hands a workspace the
// Basis it was last given back — the branch-and-bound child solved straight
// after its parent — pays neither an import nor a refactorization, and one
// that hands it any other Basis pays one refactorization.
func TestOfferingRetainedBasisSkipsImport(t *testing.T) {
	p, vars := assignmentLP(6, 4)
	ws := NewWorkspace()
	ctx := context.Background()
	first, parent := solveOn(p, ws, Options{})
	if first.Status != Optimal || parent == nil {
		t.Fatalf("first solve: %v, basis %v", first.Status, parent)
	}
	if ws.Basis() != parent {
		t.Fatal("Workspace.Basis does not return the same Basis twice")
	}

	p.SetBounds(vars[0], 0, 0) // the child's one tightened bound
	before := ws.Stats()
	child := p.SolveWith(ctx, Options{Start: parent}, ws)
	after := ws.Stats()
	if child.Status != Optimal || !child.WarmStarted {
		t.Fatalf("child: %v warm=%v (%v)", child.Status, child.WarmStarted, child.ColdFallback)
	}
	if n := after.Refactorizations - before.Refactorizations; n != 0 {
		t.Fatalf("offering the retained basis refactorized %d times", n)
	}

	// The sibling comes after the child: the workspace has moved on, so the
	// parent's basis is imported, and the answer is the cold one.
	p.SetBounds(vars[0], 1, 1)
	before = after
	sibling := p.SolveWith(ctx, Options{Start: parent}, ws)
	after = ws.Stats()
	if sibling.Status != Optimal || !sibling.WarmStarted {
		t.Fatalf("sibling: %v warm=%v (%v)", sibling.Status, sibling.WarmStarted, sibling.ColdFallback)
	}
	if n := after.Refactorizations - before.Refactorizations; n < 1 {
		t.Fatalf("importing another basis refactorized %d times, want at least 1", n)
	}
	cold := p.SolveWith(ctx, Options{}, NewWorkspace())
	if !approx(sibling.Objective, cold.Objective) {
		t.Fatalf("sibling from the parent's basis: %v, cold: %v", sibling.Objective, cold.Objective)
	}
	if ws.Basis() == parent {
		t.Fatal("Workspace.Basis still returns the parent's basis after two further solves")
	}
}

// assignmentLP is a small transportation LP — tasks to bins under capacity —
// with a fractional optimum.
func assignmentLP(tasks, bins int) (*Problem, []int) {
	rng := rand.New(rand.NewSource(11))
	p := &Problem{}
	var vars []int
	capRows := make([][]Nonzero, bins)
	for i := 0; i < tasks; i++ {
		size := float64(2 + rng.Intn(5))
		var row []Nonzero
		for j := 0; j < bins; j++ {
			v := p.AddVar(1+rng.Float64()*9, 0, 1)
			vars = append(vars, v)
			row = append(row, Nonzero{v, 1})
			capRows[j] = append(capRows[j], Nonzero{v, size})
		}
		p.AddRow(row, EQ, 1)
	}
	for j := range capRows {
		p.AddRow(capRows[j], LE, 7)
	}
	return p, vars
}

// TestStartFromPartlyCoincidingBasis carries an optimal basis onto a problem
// that only partly coincides with the one it was optimal for — a basic column
// is gone, a row is new — by hand, status by status, and checks each entry of
// what is offered and that the solve from it holds warm at the cold optimum:
// the short set of Basic columns is squared up by a row's slack.
func TestStartFromPartlyCoincidingBasis(t *testing.T) {
	// minimize  x0 + 2·x1 + 3·x2
	//   r0: x0 + x1      ≥ 4
	//   r1:      x1 + x2 ≥ 3
	//   r2: x0      + x2 ≤ 5
	var p Problem
	x0 := p.AddVar(1, 0, 10)
	x1 := p.AddVar(2, 0, 10)
	x2 := p.AddVar(3, 0, 10)
	p.AddRow([]Nonzero{{x0, 1}, {x1, 1}}, GE, 4)
	p.AddRow([]Nonzero{{x1, 1}, {x2, 1}}, GE, 3)
	p.AddRow([]Nonzero{{x0, 1}, {x2, 1}}, LE, 5)
	sol, b := solveOn(&p, NewWorkspace(), Options{})
	if sol.Status != Optimal || !approx(sol.Objective, 7) { // x0 = 1, x1 = 3
		t.Fatalf("first problem: %v %v", sol.Status, sol.Objective)
	}
	wantCols := []BasisStatus{Basic, Basic, AtLower}
	wantRows := []BasisStatus{AtLower, AtLower, Basic}
	for j, w := range wantCols {
		if b.Col(j) != w {
			t.Fatalf("column %d: %v, want %v", j, b.Col(j), w)
		}
	}
	for i, w := range wantRows {
		if b.Row(i) != w {
			t.Fatalf("row %d: %v, want %v", i, b.Row(i), w)
		}
	}

	// The second problem has no x1 (a basic column vanishes), keeps x0 and x2
	// as its columns 0 and 1, keeps r0 and r2 (now rows 0 and 1; r1 vanishes
	// with its last surviving term going to a new row), and gains r3.
	//   minimize  x0 + 3·x2
	//   r0: x0      ≥ 4
	//   r2: x0 + x2 ≤ 5
	//   r3:      x2 ≥ 0.5   (new)
	var q Problem
	y0 := q.AddVar(1, 0, 10)
	y2 := q.AddVar(3, 0, 10)
	q.AddRow([]Nonzero{{y0, 1}}, GE, 4)
	q.AddRow([]Nonzero{{y0, 1}, {y2, 1}}, LE, 5)
	q.AddRow([]Nonzero{{y2, 1}}, GE, 0.5)
	start := NewBasis(2, 3)
	start.SetCol(y0, b.Col(x0)) // survives: basic
	start.SetCol(y2, b.Col(x2)) // survives: at lower
	start.SetRow(0, b.Row(0))   // r0 survives: tight
	start.SetRow(1, b.Row(2))   // r2 survives: slack basic
	// r3 is new: NewBasis left it covered by its slack.
	for k, w := range []BasisStatus{Basic, AtLower, AtLower, Basic, Basic} {
		got := start.Row(k - 2)
		if k < 2 {
			got = start.Col(k)
		}
		if got != w {
			t.Fatalf("offered entry %d: %v, want %v", k, got, w)
		}
	}

	ws := NewWorkspace()
	warm := q.SolveWith(context.Background(), Options{Start: start}, ws)
	cold := q.SolveWith(context.Background(), Options{}, NewWorkspace())
	if cold.Status != Optimal || !approx(cold.Objective, 4+1.5) {
		t.Fatalf("cold: %v %v", cold.Status, cold.Objective)
	}
	if warm.Status != Optimal || !warm.WarmStarted || !approx(warm.Objective, cold.Objective) {
		t.Fatalf("from the carried basis: %v warm=%v (%v) objective %v, cold %v",
			warm.Status, warm.WarmStarted, warm.ColdFallback, warm.Objective, cold.Objective)
	}

	// One Basic entry short: x0, r2's slack and r3's slack make three for
	// three rows here, so drop one more to see the squaring-up.
	start.SetRow(1, AtLower)
	ws = NewWorkspace()
	warm = q.SolveWith(context.Background(), Options{Start: start}, ws)
	if warm.Status != Optimal || !warm.WarmStarted || !approx(warm.Objective, cold.Objective) {
		t.Fatalf("from a short set: %v warm=%v (%v) objective %v, cold %v",
			warm.Status, warm.WarmStarted, warm.ColdFallback, warm.Objective, cold.Objective)
	}
	if n := ws.Stats().SingularRepairs; n != 1 {
		t.Fatalf("squaring up a set one column short took %d repairs, want 1", n)
	}
	// And one too many: every column and every row Basic.
	for j := 0; j < 2; j++ {
		start.SetCol(j, Basic)
	}
	for i := 0; i < 3; i++ {
		start.SetRow(i, Basic)
	}
	warm = q.SolveWith(context.Background(), Options{Start: start}, NewWorkspace())
	if warm.Status != Optimal || !approx(warm.Objective, cold.Objective) {
		t.Fatalf("from an oversized set: %v objective %v, cold %v", warm.Status, warm.Objective, cold.Objective)
	}
}
