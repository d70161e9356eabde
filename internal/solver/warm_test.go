package solver

import (
	"context"
	"testing"

	"ras/internal/hardware"
	"ras/internal/lp"
	"ras/internal/reservation"
)

// applyRound mimics the online mover between rounds: every server's broker
// state is rebound to its solved target, so the next round's snapshot starts
// from the applied assignment exactly as the continuous loop does.
func applyRound(in *Input, targets []reservation.ID) {
	for i := range in.States {
		in.States[i].Current = targets[i]
	}
}

// TestCrossRoundWarmStart drives consecutive rounds of one world and checks
// the cross-round warm start engages once the assignment settles and then
// pays: the first warm-started round's root LP must finish in strictly fewer
// simplex iterations than the cold root of the round whose basis seeded it.
func TestCrossRoundWarmStart(t *testing.T) {
	region := testRegion(t, 2, 2, 4, 6, 7)
	rsvs := []reservation.Reservation{
		{ID: 0, Name: "web", Class: hardware.Web, RRUs: 25, Policy: reservation.DefaultPolicy()},
		{ID: 1, Name: "feed", Class: hardware.Feed1, RRUs: 15, Policy: reservation.DefaultPolicy()},
	}
	in := freshInput(region, rsvs)
	cfg := fastCfg()

	// The assignment — and with it the symmetry grouping that fixes the
	// model shape — settles after a few rounds: once a round keeps every
	// server in place, the next round rebuilds the exact same model and the
	// warm basis applies. Early rounds still churn (the grouping keys on the
	// servers' current bindings), so those legitimately fall back to cold.
	var warmRound, coldBefore *Result
	prev, err := SolveWarm(context.Background(), in, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for round := 2; round <= 8; round++ {
		applyRound(&in, prev.Targets)
		cur, err := SolveWarm(context.Background(), in, cfg, prev.Warm)
		if err != nil {
			t.Fatal(err)
		}
		if cur.Phase1.WarmRoot {
			warmRound, coldBefore = cur, prev
			break
		}
		prev = cur
	}
	if warmRound == nil {
		t.Fatal("no round warm-started within 8 rounds: the assignment never settled")
	}
	if warmRound.Phase1.RootLPIters >= coldBefore.Phase1.RootLPIters {
		t.Fatalf("warm root LP took %d iterations, the prior cold root took %d — warm start saved nothing",
			warmRound.Phase1.RootLPIters, coldBefore.Phase1.RootLPIters)
	}
	// The warm round must still deliver the same capacity guarantees.
	for i := range rsvs {
		if got := rruOf(region, warmRound.Targets, &rsvs[i]); got < rsvs[i].RRUs-1e-6 {
			t.Fatalf("%s: warm round delivered %.1f of %.1f RRUs", rsvs[i].Name, got, rsvs[i].RRUs)
		}
	}
	t.Logf("warm root: %d iterations (prior cold root: %d)",
		warmRound.Phase1.RootLPIters, coldBefore.Phase1.RootLPIters)
}

// TestCrossRoundWarmShapeFallback changes the problem between rounds. A new
// reservation adds variables and rows, but every column the old basis names
// is still in the model: the basis is carried over whole and the root LP
// completes from it. Replacing the reservation set outright leaves the basis
// with under half its columns: that is the mismatch, the basis is not used,
// and the round is still a full allocation.
func TestCrossRoundWarmShapeFallback(t *testing.T) {
	region := testRegion(t, 2, 2, 4, 6, 11)
	rsvs := []reservation.Reservation{
		{ID: 0, Name: "web", Class: hardware.Web, RRUs: 25, Policy: reservation.DefaultPolicy()},
	}
	in := freshInput(region, rsvs)
	cfg := fastCfg()

	r1, err := SolveWarm(context.Background(), in, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Phase1.RootBasisOffered != 0 || r1.Phase1.RootBasisMismatch || r1.Phase1.WarmRoot {
		t.Fatalf("round 1 was offered no basis yet reports %+v", r1.Phase1)
	}
	applyRound(&in, r1.Targets)

	// Steady-state round to obtain a basis for the settled shape.
	r2, err := SolveWarm(context.Background(), in, cfg, r1.Warm)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Warm.Phase1.Basis == nil {
		t.Fatal("round 2 exported no phase-1 root basis")
	}
	applyRound(&in, r2.Targets)

	// Shape change: a new reservation adds variables and rows.
	in.Reservations = append(in.Reservations,
		reservation.Reservation{ID: 1, Name: "feed", Class: hardware.Feed1, RRUs: 10, Policy: reservation.DefaultPolicy()})
	r3, err := SolveWarm(context.Background(), in, cfg, r2.Warm)
	if err != nil {
		t.Fatal(err)
	}
	p := r3.Phase1
	if p.RootBasisOffered != r2.Phase1.ModelVars || p.RootBasisKept != p.RootBasisOffered || p.RootBasisMismatch {
		t.Fatalf("round 3: offered %d kept %d mismatch %v, want all %d columns of round 2's model kept",
			p.RootBasisOffered, p.RootBasisKept, p.RootBasisMismatch, r2.Phase1.ModelVars)
	}
	if !p.WarmRoot && p.RootCold == lp.ColdNone {
		t.Fatal("round 3's root neither completed from the carried basis nor says why not")
	}
	for i := range in.Reservations {
		r := &in.Reservations[i]
		if got := rruOf(region, r3.Targets, r); got < r.RRUs-1e-6 {
			t.Fatalf("%s: round 3 delivered %.1f of %.1f RRUs", r.Name, got, r.RRUs)
		}
	}

	// A different reservation set: none of the basis's count or move columns
	// survives.
	in.Reservations = []reservation.Reservation{
		{ID: 7, Name: "store", Class: hardware.DataStore, RRUs: 12, Policy: reservation.DefaultPolicy()},
	}
	r4, err := SolveWarm(context.Background(), in, cfg, r3.Warm)
	if err != nil {
		t.Fatal(err)
	}
	p = r4.Phase1
	if !p.RootBasisMismatch || p.WarmRoot || 2*p.RootBasisKept >= p.RootBasisOffered {
		t.Fatalf("round 4: offered %d kept %d mismatch %v warm %v, want a mismatch and a cold root",
			p.RootBasisOffered, p.RootBasisKept, p.RootBasisMismatch, p.WarmRoot)
	}
	if got := rruOf(region, r4.Targets, &in.Reservations[0]); got < 12-1e-6 {
		t.Fatalf("store: mismatch round delivered %.1f of 12 RRUs", got)
	}
}
