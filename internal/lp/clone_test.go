package lp

import (
	"sync"
	"testing"
)

func TestCloneIndependentBounds(t *testing.T) {
	var p Problem
	x := p.AddVar(-3, 0, Inf)
	y := p.AddVar(-2, 0, Inf)
	p.AddRow([]Nonzero{{x, 1}, {y, 1}}, LE, 4)
	p.AddRow([]Nonzero{{x, 1}, {y, 3}}, LE, 6)

	c := p.Clone()
	c.SetBounds(x, 0, 1) // must not leak into the original

	if lo, up := p.Bounds(x); lo != 0 || up != Inf {
		t.Fatalf("clone SetBounds leaked into original: [%v,%v]", lo, up)
	}
	orig := solveOK(t, &p)
	if !approx(orig.Objective, -12) {
		t.Fatalf("original obj=%v, want -12", orig.Objective)
	}
	clSol := solveCold(c)
	if clSol.Status != Optimal || approx(clSol.Objective, orig.Objective) {
		t.Fatalf("clone with tighter bounds solved to %v (status %v); expected a different optimum", clSol.Objective, clSol.Status)
	}
}

func TestCloneConcurrentSolves(t *testing.T) {
	// Clones share row data read-only; concurrent solves with divergent
	// bounds must not interfere (this is the parallel MIP workers' pattern).
	var p Problem
	n := 20
	for j := 0; j < n; j++ {
		p.AddVar(-1-float64(j%5), 0, 10)
	}
	row := make([]Nonzero, n)
	for j := 0; j < n; j++ {
		row[j] = Nonzero{j, 1}
	}
	p.AddRow(row, LE, 35)

	var wg sync.WaitGroup
	sols := make([]Solution, 8)
	for i := 0; i < 8; i++ {
		c := p.Clone()
		c.SetBounds(i, 0, 0) // each clone fixes a different variable
		wg.Add(1)
		go func(i int, c *Problem) {
			defer wg.Done()
			sols[i] = solveCold(c)
		}(i, c)
	}
	wg.Wait()
	for i, s := range sols {
		if s.Status != Optimal {
			t.Fatalf("clone %d: status=%v", i, s.Status)
		}
		if s.X[i] != 0 {
			t.Fatalf("clone %d: fixed variable came back %v", i, s.X[i])
		}
	}
}
