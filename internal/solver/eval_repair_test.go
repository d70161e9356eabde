package solver

import (
	"context"
	"math"
	"reflect"
	"testing"

	"ras/internal/reservation"
)

// TestEvaluateMatchesSolverObjective pins the contract the pop backend's
// quality comparison rests on: Evaluate is an exact replica of the phase-1
// MIP objective, so evaluating the MIP's own targets reproduces the MIP's
// own reported objective (not merely a correlated score).
func TestEvaluateMatchesSolverObjective(t *testing.T) {
	region := testRegion(t, 2, 3, 4, 6, 21)
	rsvs := []reservation.Reservation{
		{ID: 0, Name: "web", Class: 0, RRUs: 40, CountBased: true, Policy: reservation.DefaultPolicy()},
		{ID: 1, Name: "feed", Class: 1, RRUs: 25, CountBased: true, Policy: reservation.DefaultPolicy()},
		{ID: 2, Name: "store", Class: 3, RRUs: 30, CountBased: true, Policy: reservation.DefaultPolicy()},
	}
	in := freshInput(region, rsvs)
	cfg := fastCfg()
	res, err := Solve(context.Background(), in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ev := Evaluate(in, cfg, res.Targets)
	if diff := math.Abs(ev.Objective - res.Phase1.Objective); diff > 1e-6 {
		t.Fatalf("Evaluate = %v, phase-1 objective = %v (diff %g): the functional drifted from the MIP",
			ev.Objective, res.Phase1.Objective, diff)
	}
	// The breakdown must reassemble into the total it claims to break down.
	sum := ev.Stability + ev.Spread + ev.Buffer + ev.CapSlack + ev.AffSlack + ev.Wear
	if diff := math.Abs(sum - ev.Objective); diff > 1e-9 {
		t.Fatalf("breakdown sums to %v, Objective says %v", sum, ev.Objective)
	}
}

// TestEvaluateReportsUnserviceable checks the §5.3 operability path:
// demand nothing in the region can serve shows up in Eval.Unserviceable and —
// matching the MIP's constraint-dropping behaviour — stays out of Objective.
func TestEvaluateReportsUnserviceable(t *testing.T) {
	region := testRegion(t, 2, 2, 3, 4, 22)
	impossible := reservation.Reservation{
		ID: 0, Name: "ghost", Class: 0, RRUs: 12, CountBased: true,
		Policy: reservation.Policy{SingleDC: 99},
	}
	in := freshInput(region, []reservation.Reservation{impossible})
	targets := make([]reservation.ID, len(region.Servers))
	for i := range targets {
		targets[i] = reservation.Unassigned
	}
	ev := Evaluate(in, fastCfg(), targets)
	if ev.Unserviceable != impossible.RRUs {
		t.Fatalf("Unserviceable = %v, want %v", ev.Unserviceable, impossible.RRUs)
	}
	if ev.Objective != 0 {
		t.Fatalf("unserviceable demand leaked into Objective: %v", ev.Objective)
	}
}

// concentratedTargets assigns the reservation's whole count-based demand to
// the lowest server IDs — all inside the first MSBs — leaving everything else
// free: maximal spread violation plus a starved embedded buffer, the shape a
// naive cross-partition merge can produce.
func concentratedTargets(in Input, r *reservation.Reservation) []reservation.ID {
	targets := make([]reservation.ID, len(in.Region.Servers))
	for i := range targets {
		targets[i] = reservation.Unassigned
	}
	n := int(r.RRUs)
	for i := 0; i < n && i < len(targets); i++ {
		targets[i] = r.ID
	}
	return targets
}

// TestRepairImprovesConcentratedAssignment drives repairTargets over a
// deliberately bad merged assignment and checks it strictly improves the
// region-wide objective while staying deterministic: identical inputs give
// identical repaired targets and stats on every run.
func TestRepairImprovesConcentratedAssignment(t *testing.T) {
	region := testRegion(t, 2, 3, 4, 6, 23)
	r := reservation.Reservation{
		ID: 0, Name: "svc", Class: 4, RRUs: 36, CountBased: true,
		Policy: reservation.DefaultPolicy(),
	}
	in := freshInput(region, []reservation.Reservation{r})
	cfg := fastCfg()
	before := concentratedTargets(in, &r)
	costBefore := Evaluate(in, cfg, before).Objective

	type run struct {
		stats   RepairStats
		targets []reservation.ID
		cost    float64
	}
	var runs []run
	for i := 0; i < 3; i++ {
		targets := append([]reservation.ID(nil), before...)
		stats := repairTargets(in, cfg, targets)
		runs = append(runs, run{stats, targets, Evaluate(in, cfg, targets).Objective})
	}
	if runs[0].stats.Moves() == 0 {
		t.Fatal("repair made no moves on a maximally concentrated assignment")
	}
	if runs[0].cost >= costBefore {
		t.Fatalf("repair did not improve the objective: %v → %v", costBefore, runs[0].cost)
	}
	for i := 1; i < len(runs); i++ {
		if runs[i].stats != runs[0].stats || runs[i].cost != runs[0].cost ||
			!reflect.DeepEqual(runs[i].targets, runs[0].targets) {
			t.Fatalf("repair not deterministic: run %d %+v cost %v vs run 0 %+v cost %v",
				i, runs[i].stats, runs[i].cost, runs[0].stats, runs[0].cost)
		}
	}
	// Capacity must be preserved or improved, never repaired away.
	if got := rruOf(region, runs[0].targets, &r); got < r.RRUs {
		t.Fatalf("repair left reservation under-served: %v of %v RRUs", got, r.RRUs)
	}
}

// TestRepairLeavesSolverOutputAlone checks the fixed point: the solver's own
// phase-1-optimal assignment gives repair nothing profitable to do, so the
// objective never regresses (a few cost-neutral envelope-levelling moves are
// allowed).
func TestRepairLeavesSolverOutputAlone(t *testing.T) {
	region := testRegion(t, 2, 2, 4, 6, 24)
	rsvs := []reservation.Reservation{
		{ID: 0, Name: "a", Class: 0, RRUs: 30, CountBased: true, Policy: reservation.DefaultPolicy()},
		{ID: 1, Name: "b", Class: 2, RRUs: 20, CountBased: true, Policy: reservation.DefaultPolicy()},
	}
	in := freshInput(region, rsvs)
	cfg := fastCfg()
	res, err := Solve(context.Background(), in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	targets := append([]reservation.ID(nil), res.Targets...)
	before := Evaluate(in, cfg, targets).Objective
	repairTargets(in, cfg, targets)
	after := Evaluate(in, cfg, targets).Objective
	if after > before+1e-9 {
		t.Fatalf("repair regressed a solver-optimal assignment: %v → %v", before, after)
	}
}
