package backend

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"ras/internal/broker"
	"ras/internal/clock"
	"ras/internal/hardware"
	"ras/internal/reservation"
	"ras/internal/solver"
	"ras/internal/topology"
)

// popRun is the full comparable outcome of one pop solve: the assignment plus
// every piece of backend detail that must be invariant under the Workers knob.
type popRun struct {
	status   Status
	obj      float64
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
	before := runtime.NumGoroutine()
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
		requireGoroutinesJoined(t, before) // the sub-solve workers exit with the solve
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

// TestPOPSubSolvesShareOneBudget: the k sub-solves of a pop round together
// spend at most one solve's MaxNodes per phase, and the budget binds — at
// least one sub-solve's phase-1 search runs to its share (on this fixture,
// every partition's search does).
func TestPOPSubSolvesShareOneBudget(t *testing.T) {
	in := testInput(t, 12, 6, 5)
	const maxNodes = 12
	be, err := New("pop", Config{Solver: solver.Config{MaxNodes: maxNodes}})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		res, err := be.Solve(context.Background(), in, Options{Workers: workers, Partitions: 3})
		if err != nil {
			t.Fatal(err)
		}
		nodes1, nodes2, bound := 0, 0, false
		for _, sub := range res.POP.Subs {
			nodes1 += sub.Phase1.Nodes
			nodes2 += sub.Phase2.Nodes
			bound = bound || sub.Phase1.Nodes == maxNodes/len(res.POP.Subs)
		}
		if nodes1 > maxNodes || nodes2 > maxNodes {
			t.Errorf("Workers %d: sub-solves ran %d phase-1 and %d phase-2 nodes, over the solve's %d", workers, nodes1, nodes2, maxNodes)
		}
		if !bound {
			t.Errorf("Workers %d: no sub-solve ran to its share of %d nodes: the test no longer binds", workers, maxNodes)
		}
	}
}

// popColdInput is the round benchmark's pop_cold deployment: a 3×4×6×24
// region drawn at the benchmark's deployment seed, eight count-based
// reservations filling 70 % of it, and 1 % of the servers failed, chosen by
// seed. The shared buffer is the default 2 %.
func popColdInput(t *testing.T, seed int64) solver.Input {
	t.Helper()
	region, err := topology.Generate(topology.GenSpec{
		Name: "pop_cold", DCs: 3, MSBsPerDC: 4, RacksPerMSB: 6, ServersPerRack: 24, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	classes := []hardware.Class{hardware.Web, hardware.Feed1, hardware.Feed2, hardware.DataStore, hardware.FleetAvg}
	const n = 8
	mean := len(region.Servers) * 7 / 10 / n
	var rsvs []reservation.Reservation
	for i := 0; i < n; i++ {
		rsvs = append(rsvs, reservation.Reservation{
			ID: reservation.ID(i), Name: fmt.Sprintf("svc%d", i), Class: classes[i%len(classes)],
			RRUs: float64(mean + 2*i - (n - 1)), CountBased: true, Policy: reservation.DefaultPolicy(),
		})
	}
	in := solver.Input{Region: region, Reservations: rsvs, States: broker.New(region).Snapshot()}
	for _, i := range rand.New(rand.NewSource(seed)).Perm(len(region.Servers))[:len(region.Servers)/100] {
		in.States[i].Unavail = broker.RandomFailure
	}
	return in
}

// TestPOPFourPartitionsMeetCapacity is the regression test of a pop round at
// k = 4 that left a reservation short: the partitions handed its eligible
// servers to other reservations, and the repair pass, whose single steps
// cannot refill a shortfall that deep, left it 2 servers short (144 of
// 146) at these three failure seeds of the pop_cold deployment (3 of 120
// seeds, where the mip backend left none short). The seed before the
// repair refills it. Every reservation's usable eligible servers must cover
// its RRUs, as the round benchmark's verification counts them.
func TestPOPFourPartitionsMeetCapacity(t *testing.T) {
	be, err := New("pop", Config{Solver: solver.Config{
		MaxNodes: 100, Phase1TimeLimit: time.Minute, Phase2TimeLimit: time.Minute,
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{12, 59, 68} {
		in := popColdInput(t, seed)
		res, err := be.Solve(context.Background(), in, Options{Workers: 1, Partitions: 4})
		if err != nil {
			t.Fatal(err)
		}
		got := make([]float64, len(in.Reservations))
		for i, tgt := range res.Targets {
			if tgt < 0 || !in.States[i].Usable() {
				continue
			}
			r, srv := &in.Reservations[tgt], &in.Region.Servers[i]
			if r.Eligible(srv.Type, hardware.RRU(in.Region.Catalog.Type(srv.Type), r.Class)) {
				got[tgt]++
			}
		}
		for _, r := range in.Reservations {
			if got[r.ID] < r.RRUs {
				t.Errorf("failure seed %d: reservation %d has %v of %v servers (seed moves %d, repair moves %d)",
					seed, r.ID, got[r.ID], r.RRUs, res.POP.Seed.Moves(), res.POP.Repair.Moves())
			}
		}
	}
}

// TestPOPRoundCoversDemand: count-based demand shares are whole servers
// rounded down, so the sub-solves together may ask for up to k − 1 servers
// less than a reservation's C_r. The round must still serve all of it: the
// recombined targets give every reservation usable servers worth at least
// C_r, on the pop_cold deployment at k = 2 and 4 and on a smaller region at
// k = 3.
func TestPOPRoundCoversDemand(t *testing.T) {
	be, err := New("pop", Config{Solver: solver.Config{
		MaxNodes: 100, Phase1TimeLimit: time.Minute, Phase2TimeLimit: time.Minute,
	}})
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, in solver.Input, k int) {
		res, err := be.Solve(context.Background(), in, Options{Workers: 1, Partitions: k})
		if err != nil {
			t.Fatal(err)
		}
		got := make([]float64, len(in.Reservations))
		for i, tgt := range res.Targets {
			if tgt >= 0 && in.States[i].Usable() {
				srv := &in.Region.Servers[i]
				got[tgt] += in.Reservations[tgt].ValueAt(in.Region.Catalog, srv.Type, srv.DC)
			}
		}
		for _, r := range in.Reservations {
			if got[r.ID] < r.RRUs-1e-9 {
				t.Errorf("%s k %d: reservation %d served %v of %v", name, k, r.ID, got[r.ID], r.RRUs)
			}
		}
	}
	for seed := int64(1); seed <= 3; seed++ {
		for _, k := range []int{2, 4} {
			check(fmt.Sprintf("pop_cold seed %d", seed), popColdInput(t, seed), k)
		}
	}
	check("testInput", testInput(t, 11, 5, 4), 3)
}

// TestPOPWarmStateRoundTrip checks the warm-start hand-over: threading the
// previous round's Warm back in hands partition p the state partition p
// exported, so a round over the same plan patches every partition's cached
// model and warms every root, and a differently partitioned round (new k)
// hands the states over all the same, where each sub-solve's own checks
// reject the models of a different sub-problem.
func TestPOPWarmStateRoundTrip(t *testing.T) {
	in := testInput(t, 13, 4, 4)
	_, first := solvePOP(t, in, Options{Workers: 1, Partitions: 2})
	if first.Warm == nil || len(first.Warm.POP) != first.POP.Partitions {
		t.Fatalf("pop solve exported no warm state per partition: %+v", first.Warm)
	}
	if first.POP.WarmPartitions != 0 {
		t.Errorf("cold round reports %d warm partitions", first.POP.WarmPartitions)
	}
	// A warm state feeds one solve, so the repeat starts from a twin of it.
	_, twin := solvePOP(t, in, Options{Workers: 1, Partitions: 2})
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
	// partition patches its model and starts its root relaxation from the
	// previous round's basis, taking fewer iterations than the cold root.
	rewarmed, _ := solvePOP(t, in, Options{Workers: 1, Partitions: 2, Warm: twin.Warm})
	if warmed != rewarmed {
		t.Fatalf("warm-started solve not deterministic:\n%+v\nvs\n%+v", warmed, rewarmed)
	}
	_, cold := solvePOP(t, in, Options{Workers: 1, Partitions: 2})
	for i, sub := range second.POP.Subs {
		w, c := sub.Phase1, cold.POP.Subs[i].Phase1
		if !w.ModelPatched {
			t.Errorf("partition %d: warm round rebuilt its model (%v)", i, w.Rebuild)
		}
		if !w.WarmRoot {
			t.Errorf("partition %d: warm round solved its root relaxation cold", i)
		}
		if w.RootLPIters >= c.RootLPIters {
			t.Errorf("partition %d: warm root took %d iterations, cold root %d", i, w.RootLPIters, c.RootLPIters)
		}
	}

	_, third := solvePOP(t, in, Options{Workers: 1, Partitions: 3, Warm: second.Warm})
	if third.POP.WarmPartitions != 2 {
		t.Errorf("a k=3 round after a k=2 one warmed %d of %d partitions, want 2",
			third.POP.WarmPartitions, third.POP.Partitions)
	}
	// Partitions 0 and 1 find a model of another sub-problem (its budget
	// share and subset changed with k), fall back and are offered its basis;
	// partition 2 has neither.
	for p, sub := range third.POP.Subs {
		ph := &sub.Phase1
		ok := ph.Rebuild > solver.RebuildNoCache && ph.RootBasisOffered > 0
		if p >= 2 {
			ok = ph.Rebuild == solver.RebuildNoCache && ph.RootBasisOffered == 0
		}
		if !ok {
			t.Errorf("k=3 round, partition %d: rebuild %v, basis offered %d", p, ph.Rebuild, ph.RootBasisOffered)
		}
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

// pollCancelCtx is a cancellable context that cancels itself at the n-th
// call of its Err: the cancel lands at a point of the solve named by how
// often the solve polled the context, not by time. Contexts derived from it
// (each solve phase's deadline) are cancelled with it.
type pollCancelCtx struct {
	context.Context
	cancel context.CancelFunc
	polls  atomic.Int64
	n      int64
}

func (c *pollCancelCtx) Err() error {
	if c.polls.Add(1) == c.n {
		c.cancel()
	}
	return c.Context.Err()
}

// TestCancelReachesPOPSubSolves: a cancel reaches the sub-solves, not just
// the merge. The round context cancels at its first poll, which a sub-solve
// makes when its phase-1 search ends; the two sub-solves run at once, so
// the other one is cancelled in flight (or meets the cancel at its own
// first poll). Every sub-result must report Cancelled — a sub-solve run on
// a context of its own would finish its search and report nothing.
func TestCancelReachesPOPSubSolves(t *testing.T) {
	in := testInput(t, 11, 5, 4)
	be, err := New("pop", Config{Solver: solver.Config{
		Phase1TimeLimit: 60 * time.Second, Phase2TimeLimit: 30 * time.Second,
	}})
	if err != nil {
		t.Fatal(err)
	}
	inner, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx := &pollCancelCtx{Context: inner, cancel: cancel, n: 1}
	res, err := be.Solve(ctx, in, Options{Workers: 2, Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusCancelled {
		t.Fatalf("status = %v, want %v", res.Status, StatusCancelled)
	}
	checkTargetsShape(t, in, res)
	for p, sub := range res.POP.Subs {
		if !sub.Cancelled {
			t.Errorf("sub-solve %d does not report the cancel (phase 1: %d nodes, status %v)",
				p, sub.Phase1.Nodes, sub.Phase1.Status)
		}
		if sub.RanPhase2 {
			t.Errorf("sub-solve %d ran its rack phase after the cancel", p)
		}
	}
}
