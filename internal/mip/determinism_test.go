package mip

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// TestRefactorCadenceDeterministic pins the sparse kernel's refactorization
// cadence to counts, never wall-clock: two identical Workers=1 solves must
// produce bit-for-bit identical objectives AND identical refactorization /
// eta-update counts on the Result they return. Under Workers∈{2,4} the node trajectory is
// scheduler-dependent (DESIGN.md "Parallel solving"), so the counters are
// only required to show the kernel was exercised while the objective stays
// within the proven-optimality tolerance of the serial result.
func TestRefactorCadenceDeterministic(t *testing.T) {
	build := func() *Model {
		rng := rand.New(rand.NewSource(42))
		m, _ := randomAssignment(rng, 10, 5)
		return m
	}
	type runStats struct {
		status  Status
		obj     float64
		refacts int
		etas    int
	}
	solveOnce := func(workers int) runStats {
		res := build().Solve(context.Background(), Options{Workers: workers, MaxNodes: 400})
		return runStats{
			status:  res.Status,
			obj:     res.Objective,
			refacts: res.LP.Refactorizations,
			etas:    res.LP.UpdateEtas,
		}
	}

	serial := solveOnce(1)
	if serial.status != Optimal {
		t.Fatalf("serial solve status %v, want optimal", serial.status)
	}
	if serial.refacts == 0 {
		t.Fatal("serial solve performed no refactorizations; kernel not exercised")
	}
	again := solveOnce(1)
	if again != serial {
		t.Fatalf("Workers=1 not deterministic: run 1 %+v, run 2 %+v (refactorization cadence must be count-driven)", serial, again)
	}

	for _, w := range []int{2, 4} {
		p := solveOnce(w)
		if p.status != Optimal {
			t.Fatalf("workers=%d status %v, want optimal", w, p.status)
		}
		if p.refacts == 0 {
			t.Fatalf("workers=%d performed no refactorizations", w)
		}
		// Both runs proved optimality at the default AbsGap (1e-6), so the
		// objectives agree to that tolerance even though trajectories differ.
		if math.Abs(p.obj-serial.obj) > 1e-5 {
			t.Fatalf("workers=%d objective %v differs from serial %v", w, p.obj, serial.obj)
		}
	}
}

// TestConcurrentSerialSolvesReportOwnStats: LP statistics belong to the solve
// that returns them. Two identical Workers=1 solves running at the same time
// in one process must each report exactly what the same solve reports alone —
// which no process-wide counter could say.
func TestConcurrentSerialSolvesReportOwnStats(t *testing.T) {
	solve := func() Result {
		return generalizedAssignment(7).Solve(context.Background(), Options{Workers: 1, MaxNodes: 400})
	}
	alone := solve()
	if alone.Nodes < 2 || alone.LP.Solves <= alone.Nodes || alone.LP.Refactorizations == 0 {
		t.Fatalf("solve too small to tell solves apart: nodes=%d LP=%+v", alone.Nodes, alone.LP)
	}
	var wg sync.WaitGroup
	var got [2]Result
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = solve()
		}(i)
	}
	wg.Wait()
	for i, r := range got {
		if r.LP != alone.LP || r.Nodes != alone.Nodes {
			t.Errorf("concurrent solve %d: nodes=%d LP=%+v, alone nodes=%d LP=%+v",
				i, r.Nodes, r.LP, alone.Nodes, alone.LP)
		}
	}
}
