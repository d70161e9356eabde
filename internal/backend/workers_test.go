package backend

import (
	"context"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"ras/internal/solver"
)

// TestWorkersDeterministicObjective solves a fixed synthetic region at
// Workers ∈ {1, 2, 4} and checks every run lands on the same objective
// within the solver's optimality tolerance, with a structurally valid
// assignment. The parallel engine may visit nodes in any order, but once a
// run proves optimality within gap g, objectives can differ by at most g.
func TestWorkersDeterministicObjective(t *testing.T) {
	in := testInput(t, 1, 4, 4)
	var ref float64
	for i, workers := range []int{1, 2, 4} {
		be, err := New("mip", Config{Solver: solver.Config{
			Phase1TimeLimit: 60 * time.Second, Phase2TimeLimit: 30 * time.Second,
			MaxNodes: 5000,
		}})
		if err != nil {
			t.Fatal(err)
		}
		res, err := be.Solve(context.Background(), in, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		checkTargets(t, in, res)
		if res.MIP == nil {
			t.Fatalf("workers=%d: no solver detail", workers)
		}
		if got := res.MIP.Phase1.Workers; got != workers {
			t.Fatalf("workers=%d: phase 1 reports %d workers", workers, got)
		}
		if i == 0 {
			ref = res.Objective
			continue
		}
		// MoveCostIdle defaults to 1 (AbsGap 0.9) and mip's relGap is 2%.
		tol := 0.9 + 0.02*math.Abs(ref) + 1e-6
		if math.Abs(res.Objective-ref) > tol {
			t.Fatalf("workers=%d: objective %v differs from serial %v by more than %v",
				workers, res.Objective, ref, tol)
		}
	}
}

// TestCancelMIPMidSolveParallel is the Workers>1 variant of
// TestCancelMIPMidSolve: cancellation must stop all workers promptly, still
// return the incumbent assignment, and leak no goroutines.
func TestCancelMIPMidSolveParallel(t *testing.T) {
	// 960 servers without the default node cap: a multi-second MIP solve,
	// so the cancel always lands mid-search.
	in := testInput(t, 2, 8, 10)
	be, err := New("mip", Config{Solver: solver.Config{
		Phase1TimeLimit: 60 * time.Second, Phase2TimeLimit: 30 * time.Second,
		MaxNodes: 1 << 20,
	}})
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	timer := time.AfterFunc(30*time.Millisecond, cancel)
	defer timer.Stop()

	start := time.Now()
	res, err := be.Solve(ctx, in, Options{Workers: 4})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("cancelled solve returned error: %v", err)
	}
	if res.Status != StatusCancelled {
		t.Fatalf("status = %v after explicit cancel (solve took %v), want %v",
			res.Status, elapsed, StatusCancelled)
	}
	if over := elapsed - 30*time.Millisecond; over > 500*time.Millisecond {
		t.Fatalf("solve returned %v after cancellation, want < 500ms over the cancel point", over)
	}
	checkTargetsShape(t, in, res)

	// Every worker must have joined before Solve returned. Poll briefly:
	// unrelated runtime goroutines retire lazily.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+1 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before solve, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestLocalSearchIgnoresWorkers checks local search is serial and a pure
// function of its input: every Workers value, and a repeated solve, returns
// the same assignment.
func TestLocalSearchIgnoresWorkers(t *testing.T) {
	in := testInput(t, 5, 4, 4)
	be, err := New("localsearch", Config{})
	if err != nil {
		t.Fatal(err)
	}
	var ref *Result
	for _, workers := range []int{1, 3, 1, 4} {
		res, err := be.Solve(context.Background(), in, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		checkTargets(t, in, res)
		if ref == nil {
			ref = res
			continue
		}
		if res.Objective != ref.Objective || !slices.Equal(res.Targets, ref.Targets) {
			t.Fatalf("workers=%d: objective %v, want %v (targets equal: %v)",
				workers, res.Objective, ref.Objective, slices.Equal(res.Targets, ref.Targets))
		}
	}
}
