package backend

import (
	"context"
	"reflect"
	"slices"
	"testing"
	"time"

	"ras/internal/broker"
	"ras/internal/hardware"
	"ras/internal/reservation"
	"ras/internal/solver"
)

// solveLocal runs the local-search backend with the given solver config.
func solveLocal(t *testing.T, in solver.Input, cfg solver.Config) *Result {
	t.Helper()
	be, err := New("localsearch", Config{Solver: cfg})
	if err != nil {
		t.Fatal(err)
	}
	res, err := be.Solve(context.Background(), in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestLocalSearchFulfillsCapacity solves an empty region and checks every
// reservation keeps its requested capacity after losing its worst MSB.
func TestLocalSearchFulfillsCapacity(t *testing.T) {
	in := testInput(t, 1, 4, 5)
	res := solveLocal(t, in, solver.Config{})
	for _, r := range in.Reservations {
		if got := surviving(in, res.Targets, r.ID); got < r.RRUs-1e-6 {
			t.Errorf("reservation %d: %.1f surviving capacity vs %.1f requested", r.ID, got, r.RRUs)
		}
	}
	if res.LocalSearch.Seed.Acquired == 0 {
		t.Fatal("search acquired nothing from an empty assignment")
	}
}

// TestLocalSearchRespectsEligibilityAndAvailability fails every fourth
// server and checks no failed or ineligible server is assigned.
func TestLocalSearchRespectsEligibilityAndAvailability(t *testing.T) {
	in := testInput(t, 3, 3, 4)
	for i := range in.Reservations {
		in.Reservations[i].RRUs *= 0.5
	}
	for i := 0; i < len(in.States); i += 4 {
		in.States[i].Unavail = broker.RandomFailure
	}
	res := solveLocal(t, in, solver.Config{})
	checkTargets(t, in, res)
	for i, tgt := range res.Targets {
		if in.States[i].Unavail == broker.RandomFailure && tgt != reservation.Unassigned {
			t.Fatalf("failed server %d assigned to %d", i, tgt)
		}
		if tgt >= 0 {
			ty := in.Region.Servers[i].Type
			if hardware.RRU(in.Region.Catalog.Type(ty), in.Reservations[tgt].Class) <= 0 {
				t.Fatalf("ineligible server %d assigned to class %v", i, in.Reservations[tgt].Class)
			}
		}
	}
}

// TestLocalSearchStableOnResolve feeds a solve's assignment back as the
// current bindings, every assigned server in use: the re-solve must not
// preempt in-use servers, and handed its own answer as warm state it must
// not end worse than that answer.
func TestLocalSearchStableOnResolve(t *testing.T) {
	in := testInput(t, 4, 3, 4)
	first := solveLocal(t, in, solver.Config{})
	for i := range in.States {
		in.States[i].Current = first.Targets[i]
		if first.Targets[i] >= 0 {
			in.States[i].Containers = 2
		}
	}
	second := solveLocal(t, in, solver.Config{})
	if second.Moves.InUse > 2 {
		t.Fatalf("re-solve preempted %d in-use servers", second.Moves.InUse)
	}
	be, err := New("localsearch", Config{})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := be.Solve(context.Background(), in, Options{Warm: second.Warm})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Objective > second.Objective {
		t.Fatalf("warm re-solve objective %v above its warm start's %v", warm.Objective, second.Objective)
	}
}

// TestLocalSearchQualityVsMIP compares the two ReBalancer backends on one
// instance and one objective: both meet every reservation's surviving
// capacity, and neither concentrates a reservation in one MSB much more than
// the other (local search's niche is speed, not optimality — §6).
func TestLocalSearchQualityVsMIP(t *testing.T) {
	if testing.Short() {
		t.Skip("backend comparison in -short mode")
	}
	in := testInput(t, 6, 4, 5)
	for i := range in.Reservations {
		in.Reservations[i].RRUs *= 6.0 / 7 // 60 % of the region
	}
	cfg := solver.Config{Phase1TimeLimit: 8 * time.Second, Phase2TimeLimit: time.Second, MaxNodes: 100, SharedBufferFraction: -1}
	ls := solveLocal(t, in, cfg)
	be, err := New("mip", Config{Solver: cfg})
	if err != nil {
		t.Fatal(err)
	}
	mip, err := be.Solve(context.Background(), in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	worstShare := func(targets []reservation.ID) float64 {
		worst := 0.0
		for _, r := range in.Reservations {
			total := 0.0
			for _, tgt := range targets {
				if tgt == r.ID {
					total++
				}
			}
			if total == 0 {
				continue
			}
			if share := (total - surviving(in, targets, r.ID)) / total; share > worst {
				worst = share
			}
		}
		return worst
	}
	for _, r := range in.Reservations {
		if got := surviving(in, ls.Targets, r.ID); got < r.RRUs-1e-6 {
			t.Errorf("local search misses capacity for reservation %d: %.1f of %.1f", r.ID, got, r.RRUs)
		}
		if got := surviving(in, mip.Targets, r.ID); got < r.RRUs-1e-6 {
			t.Errorf("MIP misses capacity for reservation %d: %.1f of %.1f", r.ID, got, r.RRUs)
		}
	}
	lsShare, mipShare := worstShare(ls.Targets), worstShare(mip.Targets)
	t.Logf("objective: local search %.2f vs MIP %.2f (Evaluate %.2f); max-MSB share %.3f vs %.3f",
		ls.Objective, mip.Objective, solver.Evaluate(in, cfg, mip.Targets).Objective, lsShare, mipShare)
	if mipShare > lsShare*1.5+0.05 || lsShare > mipShare*1.5+0.05 {
		t.Errorf("max-MSB shares diverge: local search %.3f vs MIP %.3f", lsShare, mipShare)
	}
}

// TestLocalSearchDeterministic solves one input with two separately built
// backends: the search has no seed and keeps no state between solves, so
// both must return the same assignment after the same passes and moves.
func TestLocalSearchDeterministic(t *testing.T) {
	in := testInput(t, 2, 3, 4)
	a := solveLocal(t, in, solver.Config{})
	b := solveLocal(t, in, solver.Config{})
	if a.Objective != b.Objective || !slices.Equal(a.Targets, b.Targets) {
		t.Fatalf("nondeterministic: objective %v vs %v (targets equal: %v)",
			a.Objective, b.Objective, slices.Equal(a.Targets, b.Targets))
	}
	if !reflect.DeepEqual(a.LocalSearch, b.LocalSearch) {
		t.Fatalf("nondeterministic search detail: %+v vs %+v", *a.LocalSearch, *b.LocalSearch)
	}
}

// TestLocalSearchInputValidation checks the backend rejects a snapshot
// without a region and one whose states do not cover every server.
func TestLocalSearchInputValidation(t *testing.T) {
	be, err := New("localsearch", Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := be.Solve(context.Background(), solver.Input{}, Options{}); err == nil {
		t.Error("nil region must error")
	}
	in := testInput(t, 1, 2, 2)
	in.States = in.States[:len(in.States)-1]
	if _, err := be.Solve(context.Background(), in, Options{}); err == nil {
		t.Error("states shorter than the server list must error")
	}
}
