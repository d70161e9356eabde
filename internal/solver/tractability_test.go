package solver

import (
	"testing"

	"ras/internal/hardware"
	"ras/internal/reservation"
)

// tractabilityModels builds the two models §3.5.2's design choices are
// measured by, on the small region of the root package's backend benches
// (ablationWorkload): 2 DCs × 3 MSBs × 6 racks × 6 servers and six
// count-based reservations of five classes asking for 70 % of it together.
// It returns the grouped phase-1 model, the rack-level model over every
// reservation, and the assignment variables a per-server formulation needs:
// one per usable server and reservation that server can serve.
func tractabilityModels(t *testing.T) (phase1, allRack *builtPhase, perServer int) {
	t.Helper()
	region := testRegion(t, 2, 3, 6, 6, 9)
	classes := []hardware.Class{hardware.Web, hardware.Feed1, hardware.Feed2, hardware.DataStore, hardware.FleetAvg}
	const n = 6
	var rsvs []reservation.Reservation
	for i := 0; i < n; i++ {
		rsvs = append(rsvs, reservation.Reservation{
			ID: reservation.ID(i), Name: "svc", Class: classes[i%len(classes)],
			RRUs: float64(len(region.Servers)) * 0.7 / n, CountBased: true, Policy: reservation.DefaultPolicy(),
		})
	}
	in := freshInput(region, rsvs)
	cfg := fastCfg().withDefaults(region)
	specs := buildSpecs(in, cfg)
	pool := usableServers(in)
	for _, id := range pool {
		srv := &region.Servers[id]
		for si := range specs {
			if specValue(in, &specs[si], srv.Type, srv.DC) > 0 {
				perServer++
			}
		}
	}
	var stats PhaseStats
	phase1 = buildPhase(in, cfg, specs, pool, fixtureTargets(in.States, false), false, &stats)
	allRack = buildPhase(in, cfg, specs, pool, fixtureTargets(in.States, true), true, &stats)
	return phase1, allRack, perServer
}

// TestSymmetryGroupingShrinksModel: merging servers the model cannot tell
// apart into one count variable per group and reservation (§3.5.2) needs far
// fewer assignment variables than one binary per server and reservation —
// 148 against 1 146 on this region when recorded.
func TestSymmetryGroupingShrinksModel(t *testing.T) {
	phase1, _, perServer := tractabilityModels(t)
	t.Logf("assignment variables: %d per server, %d grouped (%d groups)", perServer, phase1.assignVars, len(phase1.groups))
	if perServer < 5*phase1.assignVars {
		t.Fatalf("grouping gives %d assignment variables, the per-server formulation %d: less than 5× fewer",
			phase1.assignVars, perServer)
	}
}

// TestTwoPhaseShrinksModel: the region-wide phase works at MSB granularity
// and leaves rack goals to a second phase over the worst reservations
// (§3.5.2); folding rack goals for every reservation into the region-wide
// phase instead makes it larger — 191 against 148 assignment variables and
// 532 against 106 rows on this region when recorded.
func TestTwoPhaseShrinksModel(t *testing.T) {
	phase1, allRack, _ := tractabilityModels(t)
	t.Logf("phase 1: %d assignment variables, %d variables, %d rows; rack goals for all: %d, %d, %d",
		phase1.assignVars, phase1.m.NumVars(), phase1.m.NumConstrs(),
		allRack.assignVars, allRack.m.NumVars(), allRack.m.NumConstrs())
	if 5*allRack.assignVars < 6*phase1.assignVars {
		t.Fatalf("rack goals for all give %d assignment variables, phase 1 %d: less than 1.2× more",
			allRack.assignVars, phase1.assignVars)
	}
	if allRack.m.NumConstrs() < 3*phase1.m.NumConstrs() {
		t.Fatalf("rack goals for all give %d rows, phase 1 %d: less than 3× more",
			allRack.m.NumConstrs(), phase1.m.NumConstrs())
	}
}
