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
	"ras/internal/localsearch"
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

// TestRegistryRoundTrip solves the same input with every backend Names lists,
// constructed by name through New, and checks each produces a valid
// assignment — which also keeps Names and New's switch in step.
func TestRegistryRoundTrip(t *testing.T) {
	in := testInput(t, 1, 4, 4)
	names := Names()
	if len(names) < 2 {
		t.Fatalf("expected at least mip and localsearch, got %v", names)
	}
	for _, name := range names {
		be, err := New(name, Config{
			Solver:      solver.Config{Phase1TimeLimit: 10 * time.Second, Phase2TimeLimit: 5 * time.Second},
			LocalSearch: localsearch.Config{TimeLimit: 3 * time.Second, Seed: 1},
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

// TestCancelLocalSearchMidSolve cancels a long-budget local search and checks
// it stops promptly with the incumbent assignment.
func TestCancelLocalSearchMidSolve(t *testing.T) {
	// 2304 servers with a wide candidate sample: tens of milliseconds of
	// search, so the 10ms cancel lands mid-climb.
	in := testInput(t, 3, 60, 48)
	be, err := New("localsearch", Config{
		LocalSearch: localsearch.Config{TimeLimit: 30 * time.Second, Seed: 2, Candidates: 2048},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	timer := time.AfterFunc(10*time.Millisecond, cancel)
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
	if over := elapsed - 10*time.Millisecond; over > 200*time.Millisecond {
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
