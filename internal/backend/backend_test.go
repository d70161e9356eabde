package backend

import (
	"context"
	"math"
	"sort"
	"strings"
	"testing"
	"time"

	"ras/internal/broker"
	"ras/internal/hardware"
	"ras/internal/mip"
	"ras/internal/reservation"
	"ras/internal/solver"
	"ras/internal/topology"
)

// testInput builds a solve snapshot; size scales the region so cancellation
// tests can use an instance big enough that solves reliably outlive the
// cancel timer.
func testInput(t testing.TB, seed int64, nres int, racksPerMSB int) solver.Input {
	t.Helper()
	region, err := topology.Generate(topology.GenSpec{
		Name: "backend", DCs: 2, MSBsPerDC: 3,
		RacksPerMSB: racksPerMSB, ServersPerRack: 8, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	classes := []hardware.Class{hardware.Web, hardware.Feed1, hardware.DataStore, hardware.FleetAvg}
	var rsvs []reservation.Reservation
	per := float64(len(region.Servers)) * 0.7 / float64(nres)
	for i := 0; i < nres; i++ {
		rsvs = append(rsvs, reservation.Reservation{
			ID: reservation.ID(i), Name: "svc", Class: classes[i%len(classes)],
			RRUs: per, CountBased: true, Policy: reservation.DefaultPolicy(),
		})
	}
	return solver.Input{Region: region, Reservations: rsvs, States: broker.New(region).Snapshot()}
}

// checkTargetsShape asserts the assignment is structurally valid: one target
// per server, every target a known reservation ID. It makes no quality
// claims, so it also holds for solves aborted arbitrarily early.
func checkTargetsShape(t *testing.T, in solver.Input, res *Result) {
	t.Helper()
	if len(res.Targets) != len(in.Region.Servers) {
		t.Fatalf("got %d targets for %d servers", len(res.Targets), len(in.Region.Servers))
	}
	for i, tgt := range res.Targets {
		if tgt != reservation.Unassigned && tgt != reservation.SharedBuffer &&
			(tgt < 0 || int(tgt) >= len(in.Reservations)) {
			t.Fatalf("server %d bound to unknown reservation %d", i, tgt)
		}
	}
}

// checkTargets additionally asserts every reservation was served — the
// full-solve quality bar for uncancelled rounds.
func checkTargets(t *testing.T, in solver.Input, res *Result) {
	t.Helper()
	checkTargetsShape(t, in, res)
	perRes := map[reservation.ID]int{}
	for _, tgt := range res.Targets {
		perRes[tgt]++
	}
	for _, r := range in.Reservations {
		if perRes[r.ID] == 0 {
			t.Errorf("reservation %d (%.0f RRUs) got no servers", r.ID, r.RRUs)
		}
	}
}

// surviving is what a reservation keeps after losing its largest MSB — the
// capacity guarantee of expression 6, counted server by server.
func surviving(in solver.Input, targets []reservation.ID, id reservation.ID) float64 {
	perMSB := make([]float64, in.Region.NumMSBs)
	total := 0.0
	for i := range in.Region.Servers {
		if targets[i] == id {
			perMSB[in.Region.Servers[i].MSB]++
			total++
		}
	}
	worst := 0.0
	for _, v := range perMSB {
		worst = math.Max(worst, v)
	}
	return total - worst
}

// TestRegistryRoundTrip solves the same input with every backend Names lists,
// constructed by name through New, and checks each produces a valid
// assignment and rejects a snapshot without a region — which also keeps
// Names and New's switch in step.
func TestRegistryRoundTrip(t *testing.T) {
	in := testInput(t, 1, 4, 4)
	names := Names()
	if len(names) < 2 {
		t.Fatalf("expected at least mip and localsearch, got %v", names)
	}
	for _, name := range names {
		be, err := New(name, Config{
			Solver: solver.Config{Phase1TimeLimit: 10 * time.Second, Phase2TimeLimit: 5 * time.Second},
		})
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if be.Name() != name {
			t.Fatalf("New(%q).Name() = %q", name, be.Name())
		}
		res, err := be.Solve(context.Background(), in, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Backend != name {
			t.Errorf("%s: result labelled %q", name, res.Backend)
		}
		if res.Status == StatusNoSolution || res.Status == StatusCancelled {
			t.Fatalf("%s: unexpected status %v", name, res.Status)
		}
		checkTargets(t, in, res)
		if _, err := be.Solve(context.Background(), solver.Input{}, Options{}); err == nil {
			t.Errorf("%s: a snapshot without a region did not error", name)
		}
	}
}

// TestBackendsScoreOneObjective pins the objective contract across backends:
// local search and pop report solver.Evaluate's phase-1 functional of their
// own Targets exactly, and mip's phase-1 objective agrees with it when no
// rack phase refines Targets afterwards. The default config provisions the
// shared random-failure buffer, so a backend that never fills it shows here.
func TestBackendsScoreOneObjective(t *testing.T) {
	in := testInput(t, 1, 4, 4)
	cfg := solver.Config{Phase1TimeLimit: 10 * time.Second, DisableRackPhase: true}
	for _, name := range Names() {
		be, err := New(name, Config{Solver: cfg})
		if err != nil {
			t.Fatal(err)
		}
		res, err := be.Solve(context.Background(), in, Options{Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ev := solver.Evaluate(in, cfg, res.Targets)
		tol := 0.0
		if name == "mip" {
			tol = 1e-6
		}
		if math.Abs(res.Objective-ev.Objective) > tol {
			t.Errorf("%s: Result.Objective %v, Evaluate %v (%+v)", name, res.Objective, ev.Objective, ev)
		}
	}
}

func TestNewDefaultAndUnknown(t *testing.T) {
	be, err := New("", Config{})
	if err != nil {
		t.Fatal(err)
	}
	if be.Name() != DefaultName {
		t.Fatalf("default backend is %q, want %q", be.Name(), DefaultName)
	}
	_, err = New("no-such-backend", Config{})
	if err == nil {
		t.Fatal("unknown backend name did not error")
	}
	for _, name := range Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-name error %q does not list %q", err, name)
		}
	}
	if !sort.StringsAreSorted(Names()) {
		t.Errorf("Names() = %v, want sorted", Names())
	}
}

// TestCancelMIPMidSolve cancels a branch-and-bound solve shortly after it
// starts and checks the backend returns promptly with the best incumbent and
// a context-derived status, not an error.
func TestCancelMIPMidSolve(t *testing.T) {
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
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	timer := time.AfterFunc(30*time.Millisecond, cancel)
	defer timer.Stop()

	start := time.Now()
	res, err := be.Solve(ctx, in, Options{})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("cancelled solve returned error: %v", err)
	}
	if res.Status != StatusCancelled {
		t.Fatalf("status = %v after explicit cancel (solve took %v), want %v",
			res.Status, elapsed, StatusCancelled)
	}
	// Prompt return: the solve may legitimately spend time in the
	// uncancellable model-build steps, but once cancelled the B&B must stop
	// within one node's worth of work.
	if over := elapsed - 30*time.Millisecond; over > 200*time.Millisecond {
		t.Fatalf("solve returned %v after cancellation, want < 200ms", over)
	}
	// The incumbent may be anywhere from the starting assignment (cancel
	// landed before the root LP finished) to a near-optimal one, but it is
	// always structurally valid and applicable.
	checkTargetsShape(t, in, res)
	if res.MIP == nil {
		t.Fatal("cancelled MIP solve carries no solver detail")
	}
	// The B&B abort still reports incumbent quality: once an incumbent and
	// a root bound exist, the bound/gap pair must be coherent, exactly as
	// for Feasible.
	if res.MIP.Phase1.Status == mip.Cancelled && !math.IsInf(res.Bound, -1) {
		if got := res.Objective - res.Bound; math.Abs(got-res.Gap) > 1e-9 {
			t.Errorf("gap %g inconsistent with objective %g − bound %g", res.Gap, res.Objective, res.Bound)
		}
		if res.Gap < -1e-6 {
			t.Errorf("negative gap %g: bound above incumbent", res.Gap)
		}
	}
}

// pollCountCtx is a cancellable context whose Err polls are counted; at poll
// number cancelAt (when that is set) it cancels itself. Local search polls
// its context once between repair passes, so a poll count names a point in
// the solve that does not depend on how fast the host is.
type pollCountCtx struct {
	context.Context
	cancel    context.CancelFunc
	polls     int
	cancelAt  int
	cancelled time.Time
}

func (c *pollCountCtx) Err() error {
	if c.polls++; c.polls == c.cancelAt {
		c.cancelled = time.Now()
		c.cancel()
	}
	return c.Context.Err()
}

// TestCancelLocalSearchMidSolve cancels a local search halfway through the
// repair passes an uncancelled solve of the same input runs and checks it
// stops promptly with the incumbent assignment.
func TestCancelLocalSearchMidSolve(t *testing.T) {
	// 2304 servers and 60 reservations: several repair passes to the fixed
	// point, so a cancel between them lands mid-search.
	in := testInput(t, 3, 60, 48)
	be, err := New("localsearch", Config{})
	if err != nil {
		t.Fatal(err)
	}
	full := &pollCountCtx{Context: context.Background()}
	if _, err := be.Solve(full, in, Options{}); err != nil {
		t.Fatal(err)
	}
	if full.polls < 3 {
		t.Fatalf("an uncancelled solve polled its context %d times: too few passes to cancel between", full.polls)
	}
	base, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx := &pollCountCtx{Context: base, cancel: cancel, cancelAt: full.polls / 2}

	res, err := be.Solve(ctx, in, Options{})
	returned := time.Now()
	if err != nil {
		t.Fatalf("cancelled solve returned error: %v", err)
	}
	if res.Status != StatusCancelled {
		t.Fatalf("status = %v after a cancel at poll %d of %d, want %v",
			res.Status, ctx.cancelAt, full.polls, StatusCancelled)
	}
	if over := returned.Sub(ctx.cancelled); over > 200*time.Millisecond {
		t.Fatalf("solve returned %v after cancellation, want < 200ms", over)
	}
	if res.LocalSearch == nil {
		t.Fatal("cancelled local-search solve carries no search detail")
	}
	if len(res.Targets) != len(in.Region.Servers) {
		t.Fatalf("got %d targets for %d servers", len(res.Targets), len(in.Region.Servers))
	}
}

// TestContextDeadlineKeepsFeasible checks the semantic split: a context
// *deadline* is a time budget — hitting it is the paper's early-timeout
// path (Feasible + measured gap, Figure 9), not a cancellation.
func TestContextDeadlineKeepsFeasible(t *testing.T) {
	in := testInput(t, 4, 8, 10)
	be, err := New("mip", Config{Solver: solver.Config{
		Phase1TimeLimit: 60 * time.Second, Phase2TimeLimit: 30 * time.Second,
	}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	res, err := be.Solve(ctx, in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status == StatusCancelled {
		t.Fatalf("deadline expiry mapped to %v; want the Feasible early-timeout path", res.Status)
	}
	checkTargetsShape(t, in, res)
}
