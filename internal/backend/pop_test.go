package backend

import (
	"context"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"ras/internal/clock"
	"ras/internal/solver"
)

// popRun is the full comparable outcome of one pop solve: the assignment plus
// every piece of backend detail that must be invariant under the Workers knob.
type popRun struct {
	status   Status
	obj      float64
	planSig  uint64
	repair   solver.RepairStats
	moves    solver.MoveStats
	targets  string
	subWkrs  int
	nPartits int
}

func solvePOP(t *testing.T, in solver.Input, opts Options) (popRun, *Result) {
	t.Helper()
	be, err := New("pop", Config{Solver: solver.Config{
		Phase1TimeLimit: 20 * time.Second, Phase2TimeLimit: 5 * time.Second,
	}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := be.Solve(context.Background(), in, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.POP == nil {
		t.Fatal("pop result carries no POP detail")
	}
	buf := make([]byte, 0, 4*len(res.Targets))
	for _, id := range res.Targets {
		buf = append(buf, byte(id>>24), byte(id>>16), byte(id>>8), byte(id))
	}
	return popRun{
		status:   res.Status,
		obj:      res.Objective,
		planSig:  res.POP.PlanSig,
		repair:   res.POP.Repair,
		moves:    res.Moves,
		targets:  string(buf),
		subWkrs:  res.POP.SubWorkers,
		nPartits: res.POP.Partitions,
	}, res
}

// TestPOPDeterministicAcrossWorkers mirrors internal/mip/determinism_test.go
// for the partitioned backend, but with a stronger bar: because every
// sub-solve runs the exact serial engine whenever Workers ≤ Partitions, the
// final assignment must be bit-for-bit identical across Workers ∈ {1, 2, 4}
// and across repeated runs — not merely equal within tolerance. Only the
// goroutine-to-partition mapping changes with Workers, and each partition's
// answer is a pure function of its own inputs.
func TestPOPDeterministicAcrossWorkers(t *testing.T) {
	in := testInput(t, 11, 5, 4)
	base, res := solvePOP(t, in, Options{Workers: 1, Partitions: 3})
	if base.status != StatusFeasible {
		t.Fatalf("serial pop solve status %v, want feasible", base.status)
	}
	if base.nPartits != 3 {
		t.Fatalf("effective partitions %d, want 3", base.nPartits)
	}
	checkTargets(t, in, res)

	again, _ := solvePOP(t, in, Options{Workers: 1, Partitions: 3})
	if again != base {
		t.Fatalf("Workers=1 not deterministic across runs:\n%+v\nvs\n%+v", base, again)
	}
	for _, w := range []int{2, 4} {
		run, _ := solvePOP(t, in, Options{Workers: w, Partitions: 3})
		if run.subWkrs != 1 {
			t.Fatalf("Workers=%d: sub-solves ran with %d workers, want the exact serial engine", w, run.subWkrs)
		}
		if run != base {
			t.Fatalf("Workers=%d result differs from Workers=1:\n%+v\nvs\n%+v", w, run, base)
		}
	}
}

// TestPOPObjectiveMatchesEvaluate pins the objective contract: the pop
// Result.Objective is the region-wide phase-1 functional of the merged
// assignment (solver.Evaluate), never the sum of sub-objectives — summing
// would count k embedded-buffer envelopes instead of one.
func TestPOPObjectiveMatchesEvaluate(t *testing.T) {
	in := testInput(t, 12, 4, 4)
	_, res := solvePOP(t, in, Options{Workers: 1, Partitions: 2})
	ev := solver.Evaluate(in, solver.Config{}, res.Targets)
	if math.Abs(ev.Objective-res.Objective) > 1e-9 {
		t.Fatalf("Result.Objective %v != Evaluate %v on the merged targets", res.Objective, ev.Objective)
	}
	var sum float64
	for _, sub := range res.POP.Subs {
		sum += sub.Phase1.Objective
	}
	if res.Objective > sum+1e-9 {
		t.Errorf("merged objective %v exceeds sub-objective sum %v: repair made things worse", res.Objective, sum)
	}
}

// TestDivideWorkers pins the budget-division rule the Options.Workers doc
// promises: pop divides the budget across sub-solves, never multiplies, and
// perSub×concurrent never exceeds max(w, k-clamped limits).
func TestDivideWorkers(t *testing.T) {
	for _, tc := range []struct {
		w, k               int
		perSub, concurrent int
	}{
		{w: 1, k: 4, perSub: 1, concurrent: 1},
		{w: 2, k: 4, perSub: 1, concurrent: 2},
		{w: 4, k: 4, perSub: 1, concurrent: 4},
		{w: 8, k: 4, perSub: 2, concurrent: 4},
		{w: 9, k: 4, perSub: 2, concurrent: 4},
		{w: 16, k: 4, perSub: 4, concurrent: 4},
		{w: 4, k: 8, perSub: 1, concurrent: 4},
		{w: 1, k: 1, perSub: 1, concurrent: 1},
		{w: 6, k: 1, perSub: 6, concurrent: 1},
		{w: 0, k: 4, perSub: 1, concurrent: 1},
		{w: 3, k: 0, perSub: 3, concurrent: 1},
	} {
		perSub, concurrent := divideWorkers(tc.w, tc.k)
		if perSub != tc.perSub || concurrent != tc.concurrent {
			t.Errorf("divideWorkers(%d, %d) = (%d, %d), want (%d, %d)",
				tc.w, tc.k, perSub, concurrent, tc.perSub, tc.concurrent)
		}
		if tc.w >= 1 && perSub*concurrent > tc.w && concurrent > 1 {
			t.Errorf("divideWorkers(%d, %d) oversubscribes: %d×%d > budget",
				tc.w, tc.k, perSub, concurrent)
		}
	}
}

// TestPOPWarmStateRoundTrip checks the warm-start keying: threading the
// previous round's Warm back in hits every partition's warm state when the
// plan signature matches, and a differently partitioned round (new k → new
// signature) solves cold instead of consuming stale bases.
func TestPOPWarmStateRoundTrip(t *testing.T) {
	in := testInput(t, 13, 4, 4)
	_, first := solvePOP(t, in, Options{Workers: 1, Partitions: 2})
	if first.Warm == nil || first.Warm.POP == nil {
		t.Fatal("pop solve exported no warm state")
	}
	if first.Warm.POP.Sig != first.POP.PlanSig {
		t.Fatalf("warm Sig %#x != plan Sig %#x", first.Warm.POP.Sig, first.POP.PlanSig)
	}
	if len(first.Warm.POP.Parts) != first.POP.Partitions {
		t.Fatalf("warm state has %d parts for %d partitions", len(first.Warm.POP.Parts), first.POP.Partitions)
	}

	if first.POP.WarmPartitions != 0 {
		t.Errorf("cold round reports %d warm partitions", first.POP.WarmPartitions)
	}
	warmed, second := solvePOP(t, in, Options{Workers: 1, Partitions: 2, Warm: first.Warm})
	if second.POP.WarmPartitions != second.POP.Partitions {
		t.Errorf("same-plan warm round warmed %d partitions, want all %d",
			second.POP.WarmPartitions, second.POP.Partitions)
	}
	// Warm starts may legitimately re-break branch-and-bound ties: on this
	// instance the warm and the cold round both stop at the node limit with
	// more than 5 units of soft slack, and which of them stops lower is
	// decided by which of several equal-objective vertices the node LPs
	// return. So the objectives are not compared. What warm state does
	// guarantee: the repeat of the same warm round is bit-identical, and every
	// partition's root relaxation starts from the previous round's basis and
	// takes fewer iterations than the cold root.
	rewarmed, _ := solvePOP(t, in, Options{Workers: 1, Partitions: 2, Warm: first.Warm})
	if warmed != rewarmed {
		t.Fatalf("warm-started solve not deterministic:\n%+v\nvs\n%+v", warmed, rewarmed)
	}
	_, cold := solvePOP(t, in, Options{Workers: 1, Partitions: 2})
	for i, sub := range second.POP.Subs {
		w, c := sub.Phase1, cold.POP.Subs[i].Phase1
		if !w.WarmRoot {
			t.Errorf("partition %d: warm round solved its root relaxation cold", i)
		}
		if w.RootLPIters >= c.RootLPIters {
			t.Errorf("partition %d: warm root took %d iterations, cold root %d", i, w.RootLPIters, c.RootLPIters)
		}
	}

	_, third := solvePOP(t, in, Options{Workers: 1, Partitions: 3, Warm: first.Warm})
	if third.POP.WarmPartitions != 0 {
		t.Errorf("plan-signature mismatch still warmed %d of %d partitions",
			third.POP.WarmPartitions, third.POP.Partitions)
	}
	if third.Warm.POP.Sig == first.Warm.POP.Sig {
		t.Error("k=2 and k=3 rounds share a plan signature")
	}
	// Foreign warm fields must survive the pop round (backend-switch contract).
	if third.Warm.MIP != first.Warm.MIP {
		t.Error("pop round dropped the foreign MIP warm state")
	}
}

// readCountClock is the system clock with its Now reads counted; at read
// number cancelAt (when that is set) it calls cancel. The solve stack stamps
// every stage boundary through the clock seam — pop's own start, then per
// partition and phase the model-build stages and the MIP — so a read count
// names a point in the solve that does not depend on how fast the host is.
type readCountClock struct {
	clock.Clock
	reads     atomic.Int64
	cancelAt  int64
	cancel    context.CancelFunc
	cancelled time.Time // instant cancel was called (written once, before Solve returns)
}

func (c *readCountClock) Now() time.Time {
	now := c.Clock.Now()
	if c.reads.Add(1) == c.cancelAt {
		c.cancelled = now
		c.cancel()
	}
	return now
}

// TestCancelPOPMidSolve checks the package cancellation contract for the
// partitioned path: cancelling mid-solve returns promptly with the merged
// incumbents (repair is skipped), StatusCancelled, and no error. The cancel
// fires at the stage boundary halfway through the stage boundaries an
// uncancelled solve of the same input crosses, so it lands mid-solve however
// long the solve takes (a 30 ms wall-clock timer stopped doing so once the
// whole solve took 44 ms).
func TestCancelPOPMidSolve(t *testing.T) {
	in := testInput(t, 14, 8, 10)
	be, err := New("pop", Config{Solver: solver.Config{
		Phase1TimeLimit: 60 * time.Second, Phase2TimeLimit: 30 * time.Second,
	}})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Workers: 2, Partitions: 3}

	full := &readCountClock{Clock: clock.System}
	restore := clock.Override(full)
	_, err = be.Solve(context.Background(), in, opts)
	restore()
	if err != nil {
		t.Fatal(err)
	}
	total := full.reads.Load()
	if total < 4 {
		t.Fatalf("an uncancelled pop solve read the clock %d times: too few stage boundaries to cancel between", total)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cut := &readCountClock{Clock: clock.System, cancelAt: total / 2, cancel: cancel}
	defer clock.Override(cut)()
	res, err := be.Solve(ctx, in, opts)
	returned := time.Now()
	if err != nil {
		t.Fatalf("cancelled solve returned error: %v", err)
	}
	if res.Status != StatusCancelled {
		t.Fatalf("status = %v after a cancel at clock read %d of %d, want %v",
			res.Status, cut.cancelAt, total, StatusCancelled)
	}
	if over := returned.Sub(cut.cancelled); over > 400*time.Millisecond {
		t.Fatalf("solve returned %v after cancellation, want prompt stop", over)
	}
	checkTargetsShape(t, in, res)
	if res.POP == nil {
		t.Fatal("cancelled pop solve carries no POP detail")
	}
	if res.POP.Repair.Moves() != 0 {
		t.Errorf("cancelled round still ran %d repair moves", res.POP.Repair.Moves())
	}
}
