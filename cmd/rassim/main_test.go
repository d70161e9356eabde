package main

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"ras"
	"ras/internal/backend"
	"ras/internal/mip"
	"ras/internal/solver"
)

// TestRunTotalsAddUp: the totals rassim prints at exit are summed from every
// round's result, so over a run that patches and then — on a mid-run create,
// what -grow-hour does — rebuilds, the patch hits, rebuild reasons, rack
// phases proven and LP sums must equal hand sums over each round's
// PhaseStats, and the printed lines must say the same.
func TestRunTotalsAddUp(t *testing.T) {
	region, err := ras.NewRegion(ras.RegionSpec{
		Name: "sim", DCs: 2, MSBsPerDC: 2, RacksPerMSB: 4, ServersPerRack: 4, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys := ras.NewSystem(region, ras.Options{Workers: 1, Solver: ras.SolverConfig{MaxNodes: 100}})
	create := func(name string, class ras.Class, rrus float64) {
		t.Helper()
		if _, err := sys.CreateReservation(ras.Reservation{
			Name: name, Class: class, RRUs: rrus, CountBased: true, Policy: ras.DefaultPolicy(),
		}); err != nil {
			t.Fatal(err)
		}
	}
	create("web", ras.Web, 14)
	create("feed", ras.Feed1, 12)
	create("store", ras.DataStore, 10)

	var totals backend.Totals
	var patched, rackRounds, rackProven, lpSolves, lpIters int
	var rebuilds [solver.NumRebuildReasons]int
	var phaseSolves [2]int
	for round := 0; round < 10; round++ {
		if round == 6 {
			create("grow", ras.Feed2, 6)
		}
		res, err := sys.Solve(context.Background(), ras.Clock(3600*round))
		if err != nil {
			t.Fatal(err)
		}
		totals.Add(res)
		r := res.MIP
		if r.RanPhase2 {
			rackRounds++
			if r.Phase2.Status == mip.Optimal {
				rackProven++
			}
		}
		for k, ph := range [2]solver.PhaseStats{r.Phase1, r.Phase2} {
			if ph.ModelPatched {
				patched++
			}
			rebuilds[ph.Rebuild]++
			lpSolves += ph.LPSolves
			lpIters += ph.LPIters
			phaseSolves[k] += ph.LPSolves
		}
	}
	if patched == 0 || rebuilds[solver.RebuildReservationSet] == 0 || rackRounds == 0 {
		t.Fatalf("the run lost its point: %d patched phases, rebuilds %v, %d rack rounds", patched, rebuilds, rackRounds)
	}

	for _, c := range []struct {
		what      string
		got, want int
	}{
		{"patch hits", totals.Patched, patched},
		{"rack rounds", totals.RackRounds, rackRounds},
		{"rack phases proven", totals.RackProven, rackProven},
		{"phase 1 LP solves", totals.Phases[0].LP.Solves, phaseSolves[0]},
		{"phase 2 LP solves", totals.Phases[1].LP.Solves, phaseSolves[1]},
	} {
		if c.got != c.want {
			t.Errorf("%s: totals %d, hand sum %d", c.what, c.got, c.want)
		}
	}
	if totals.Rebuilds != rebuilds {
		t.Errorf("rebuild reasons: totals %v, hand sums %v", totals.Rebuilds, rebuilds)
	}

	var buf bytes.Buffer
	totals.Print(&buf)
	fallbacks := 0
	for why := solver.RebuildNoCache + 1; why < solver.NumRebuildReasons; why++ {
		fallbacks += rebuilds[why]
	}
	for _, want := range []string{
		fmt.Sprintf("model-cache: patch_hits=%d patch_misses=%d fallback_rebuilds=%d\n",
			patched, rebuilds[solver.RebuildNoCache], fallbacks),
		fmt.Sprintf("lp: solves=%d iters=%d ", lpSolves, lpIters),
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("printed totals lack %q:\n%s", want, buf.String())
		}
	}
}
