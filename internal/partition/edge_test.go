package partition

import (
	"math"
	"testing"

	"ras/internal/broker"
	"ras/internal/reservation"
	"ras/internal/topology"
)

// tinyRegion builds a region with an arbitrary geometry plus a fresh
// snapshot, for edge cases the standard testRegion is too big to hit.
func tinyRegion(t *testing.T, dcs, msbsPerDC, racksPerMSB, serversPerRack int) (*topology.Region, []broker.ServerState) {
	t.Helper()
	region, err := topology.Generate(topology.GenSpec{
		Name: "edge", DCs: dcs, MSBsPerDC: msbsPerDC,
		RacksPerMSB: racksPerMSB, ServersPerRack: serversPerRack, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return region, broker.New(region).Snapshot()
}

// assertExpressionSixSatisfiable checks the clamp's reason for existing: the
// embedded-buffer row (expression 6, Σ − max_MSB ≥ C_r) has an identically
// zero left-hand side in any single-MSB sub-region, so whenever the plan has
// more than one partition, every partition must own at least two MSBs.
func assertExpressionSixSatisfiable(t *testing.T, plan *Plan) {
	t.Helper()
	if plan.K == 1 {
		return // one partition is the whole region; expression 6 is unchanged
	}
	perPart := make([]int, plan.K)
	for _, p := range plan.PartOfMSB {
		perPart[p]++
	}
	for p, n := range perPart {
		if n < 2 {
			t.Errorf("partition %d holds %d MSBs; expression 6 (Σ − max_MSB ≥ C_r) "+
				"is unsatisfiable for positive demand in a sub-region with < 2 MSBs", p, n)
		}
	}
}

// TestSplitClampSmallRegions pins K for regions with fewer than four MSBs:
// any such region can support only one partition (two partitions would leave
// one with a single MSB), including the degenerate one-MSB region where
// NumMSBs/2 rounds to zero.
func TestSplitClampSmallRegions(t *testing.T) {
	for _, tc := range []struct {
		dcs, msbsPerDC int
		ask, wantK     int
	}{
		{dcs: 1, msbsPerDC: 1, ask: 4, wantK: 1}, // NumMSBs/2 = 0: floor to 1, not 4 empty partitions
		{dcs: 1, msbsPerDC: 2, ask: 2, wantK: 1},
		{dcs: 1, msbsPerDC: 3, ask: 4, wantK: 1},
		{dcs: 1, msbsPerDC: 4, ask: 2, wantK: 2}, // first geometry wide enough to split
	} {
		region, states := tinyRegion(t, tc.dcs, tc.msbsPerDC, 2, 2)
		plan, err := Split(region, states, tc.ask)
		if err != nil {
			t.Fatalf("%d MSBs, k=%d: %v", region.NumMSBs, tc.ask, err)
		}
		if plan.K != tc.wantK {
			t.Errorf("%d MSBs: Split(k=%d).K = %d, want %d",
				region.NumMSBs, tc.ask, plan.K, tc.wantK)
		}
		if len(plan.Subsets) != plan.K {
			t.Errorf("%d MSBs: %d subsets for K=%d", region.NumMSBs, len(plan.Subsets), plan.K)
		}
		for p, sub := range plan.Subsets {
			if len(sub) == 0 {
				t.Errorf("%d MSBs, k=%d: partition %d owns no servers", region.NumMSBs, tc.ask, p)
			}
		}
		assertExpressionSixSatisfiable(t, plan)
	}
}

// TestSplitDemandsZeroDemand checks the degenerate split: a reservation with
// C_r = 0 must produce shares that are each ≥ 0, sum to exactly zero, and
// are never NaN — the remainder accounting divides by total eligible
// capacity, not by demand, so zero demand must not poison the arithmetic.
func TestSplitDemandsZeroDemand(t *testing.T) {
	region, states := testRegion(t)
	plan, err := Split(region, states, 3)
	if err != nil {
		t.Fatal(err)
	}
	assertExpressionSixSatisfiable(t, plan)

	rsvs := []reservation.Reservation{
		testReservation(0, 0),  // zero demand, plenty of eligible capacity
		testReservation(1, 12), // control: a normal reservation alongside it
	}
	demands := SplitDemands(region, states, rsvs, plan)
	if len(demands) != plan.K {
		t.Fatalf("got %d demand lists for %d partitions", len(demands), plan.K)
	}
	sums := map[reservation.ID]float64{}
	for p, list := range demands {
		for _, r := range list {
			if math.IsNaN(r.RRUs) {
				t.Fatalf("partition %d: reservation %d share is NaN", p, r.ID)
			}
			if r.RRUs < 0 {
				t.Errorf("partition %d: reservation %d got negative share %v", p, r.ID, r.RRUs)
			}
			sums[r.ID] += r.RRUs
		}
	}
	if got := sums[0]; got != 0 {
		t.Errorf("zero-demand reservation shares sum to %v, want exactly 0", got)
	}
	if got := sums[1]; got != 12 {
		t.Errorf("control reservation shares sum to %v, want exactly 12", got)
	}
}

// TestSplitSingleServerMSBs runs the partitioner over a region whose MSBs
// each hold exactly one server: the LPT balancer and subset builder must
// still disjointly cover the fleet, the clamp must still guarantee ≥2 MSBs
// per partition, and demand shares must still keep the split's contract
// (checkShares).
func TestSplitSingleServerMSBs(t *testing.T) {
	region, states := tinyRegion(t, 1, 6, 1, 1) // 6 MSBs, 1 rack × 1 server each
	if len(region.Servers) != region.NumMSBs {
		t.Fatalf("geometry: %d servers for %d MSBs, want one per MSB",
			len(region.Servers), region.NumMSBs)
	}
	plan, err := Split(region, states, 3)
	if err != nil {
		t.Fatal(err)
	}
	if plan.K != 3 {
		t.Fatalf("plan.K = %d, want 3 (6 single-server MSBs support k=3)", plan.K)
	}
	assertExpressionSixSatisfiable(t, plan)

	seen := make([]int, len(region.Servers))
	for p, sub := range plan.Subsets {
		if len(sub) != 2 {
			t.Errorf("partition %d owns %d servers, want 2 (one per MSB)", p, len(sub))
		}
		for _, id := range sub {
			seen[id]++
			if got := plan.PartOfMSB[region.Servers[id].MSB]; got != p {
				t.Errorf("server %d in partition %d but its MSB maps to %d", id, p, got)
			}
		}
	}
	for id, n := range seen {
		if n != 1 {
			t.Errorf("server %d appears in %d subsets, want exactly 1", id, n)
		}
	}

	rate := testReservation(1, 4.1)
	rate.CountBased = false
	rsvs := []reservation.Reservation{testReservation(0, 5), rate}
	demands := SplitDemands(region, states, rsvs, plan)
	for p, list := range demands {
		for _, sub := range list {
			if math.IsNaN(sub.RRUs) || sub.RRUs < 0 {
				t.Fatalf("partition %d: bad share %v", p, sub.RRUs)
			}
		}
	}
	checkShares(t, region, states, rsvs, plan, demands)
}
