package partition

import (
	"math"
	"reflect"
	"testing"

	"ras/internal/broker"
	"ras/internal/hardware"
	"ras/internal/reservation"
	"ras/internal/topology"
)

// testRegion builds a 2-DC, 6-MSB region (the smallest geometry where the
// ≥2-MSBs-per-partition clamp still allows k=3) plus a fresh snapshot.
func testRegion(t *testing.T) (*topology.Region, []broker.ServerState) {
	t.Helper()
	region, err := topology.Generate(topology.GenSpec{
		Name: "part", DCs: 2, MSBsPerDC: 3, RacksPerMSB: 4, ServersPerRack: 6, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return region, broker.New(region).Snapshot()
}

func testReservation(id int, rrus float64) reservation.Reservation {
	return reservation.Reservation{
		ID: reservation.ID(id), Name: "svc", Class: hardware.FleetAvg,
		RRUs: rrus, CountBased: true, Policy: reservation.DefaultPolicy(),
	}
}

// TestSplitDeterministic mirrors internal/mip/determinism_test.go for the
// partitioner: repeated Split calls over one snapshot must produce identical
// plans (same MSB map, same subsets) — the plan feeds k
// concurrent sub-solves, so any instability here would defeat the pop
// backend's bit-for-bit reproducibility.
func TestSplitDeterministic(t *testing.T) {
	region, states := testRegion(t)
	// Perturb availability so usable-per-MSB counts are not all equal and the
	// LPT ordering actually has work to do.
	b := broker.New(region)
	for i := 0; i < 10; i++ {
		b.SetUnavailable(topology.ServerID(i*7%len(region.Servers)), broker.RandomFailure, 1, 0)
	}
	states = b.Snapshot()

	first, err := Split(region, states, 3)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 5; run++ {
		again, err := Split(region, states, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("run %d: plan differs from first:\n%+v\nvs\n%+v", run, first, again)
		}
	}
}

// TestSplitCoversFleetOnMSBBoundaries checks the two structural invariants
// recombination relies on: every server (usable or not) appears in exactly
// one subset, subsets are ascending, and no MSB straddles a partition.
func TestSplitCoversFleetOnMSBBoundaries(t *testing.T) {
	region, states := testRegion(t)
	plan, err := Split(region, states, 3)
	if err != nil {
		t.Fatal(err)
	}
	if plan.K != 3 {
		t.Fatalf("plan.K = %d, want 3", plan.K)
	}
	seen := make([]int, len(region.Servers))
	for p, sub := range plan.Subsets {
		for i, id := range sub {
			seen[id]++
			if i > 0 && sub[i-1] >= id {
				t.Fatalf("partition %d subset not ascending at %d", p, i)
			}
			if got := plan.PartOfMSB[region.Servers[id].MSB]; got != p {
				t.Fatalf("server %d in partition %d but its MSB maps to %d", id, p, got)
			}
		}
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("server %d appears in %d subsets, want exactly 1", id, n)
		}
	}
}

// TestSplitClampsK pins the feasibility clamp: no partition may hold fewer
// than two MSBs (a 1-MSB sub-region makes the embedded-buffer row
// Σ − max_MSB ≥ C_r unsatisfiable), so k caps at NumMSBs/2; k<1 lifts to 1.
func TestSplitClampsK(t *testing.T) {
	region, states := testRegion(t) // 6 MSBs → max usable k is 3
	for _, tc := range []struct{ ask, want int }{
		{ask: -1, want: 1}, {ask: 0, want: 1}, {ask: 1, want: 1},
		{ask: 3, want: 3}, {ask: 4, want: 3}, {ask: 100, want: 3},
	} {
		plan, err := Split(region, states, tc.ask)
		if err != nil {
			t.Fatal(err)
		}
		if plan.K != tc.want {
			t.Errorf("Split(k=%d).K = %d, want %d", tc.ask, plan.K, tc.want)
		}
		perPart := make([]int, plan.K)
		for _, p := range plan.PartOfMSB {
			perPart[p]++
		}
		for p, n := range perPart {
			if n < 2 {
				t.Errorf("Split(k=%d): partition %d holds %d MSBs, want ≥ 2", tc.ask, p, n)
			}
		}
	}
}

// TestSplitDemandsConservesRRUs checks the shares against the split's
// contract (checkShares): count-based shares are whole servers that lose
// fewer than k of C_r, rate-based ones sum to exactly C_r — not within
// epsilon; the last positive share absorbs the float residue.
func TestSplitDemandsConservesRRUs(t *testing.T) {
	region, states := testRegion(t)
	plan, err := Split(region, states, 3)
	if err != nil {
		t.Fatal(err)
	}
	rate := testReservation(3, 23.7)
	rate.CountBased = false
	rsvs := []reservation.Reservation{
		testReservation(0, 17), testReservation(1, 31.3), testReservation(2, 1), rate,
	}
	demands := SplitDemands(region, states, rsvs, plan)
	if len(demands) != plan.K {
		t.Fatalf("got %d demand lists for %d partitions", len(demands), plan.K)
	}
	for _, list := range demands {
		for _, r := range list {
			if r.RRUs <= 0 {
				t.Errorf("reservation %d got non-positive share %v", r.ID, r.RRUs)
			}
		}
	}
	checkShares(t, region, states, rsvs, plan, demands)
}

// checkShares holds every reservation's shares to SplitDemands' contract,
// given the weights w_p it splits by (current usable holdings per
// partition, else eligible usable capacity) and their total W:
//   - a count-based share in partition p is ⌊C_r·w_p/W⌋ whole servers,
//     absent where that is 0, unless every share floors to 0 and the
//     heaviest partition (lowest p on ties) holds all of C_r;
//   - count-based shares sum to a value in (C_r − k, C_r];
//   - rate-based shares are bit for bit the proportional split whose last
//     positive share takes the float residue, summing to exactly C_r.
func checkShares(t *testing.T, region *topology.Region, states []broker.ServerState,
	rsvs []reservation.Reservation, plan *Plan, demands [][]reservation.Reservation) {
	t.Helper()
	for _, r := range rsvs {
		got := make([]float64, plan.K)
		sum := 0.0
		for p, list := range demands {
			for _, sub := range list {
				if sub.ID == r.ID {
					got[p] = sub.RRUs
					sum += sub.RRUs
				}
			}
		}
		caps, held := make([]float64, plan.K), make([]float64, plan.K)
		capTotal, heldTotal := 0.0, 0.0
		for i := range region.Servers {
			srv := &region.Servers[i]
			v := r.Value(region.Catalog, srv.Type, srv.DC)
			if !states[i].Usable() || v <= 0 {
				continue
			}
			caps[plan.PartOfMSB[srv.MSB]] += v
			capTotal += v
			if states[i].Current == r.ID {
				held[plan.PartOfMSB[srv.MSB]] += v
				heldTotal += v
			}
		}
		w, total := caps, capTotal
		if heldTotal > 0 {
			w, total = held, heldTotal
		}
		want := make([]float64, plan.K)
		heaviest, last, assigned := 0, -1, 0.0
		for p := range w {
			if w[p] > w[heaviest] {
				heaviest = p
			}
			if w[p] > 0 {
				last = p
			}
		}
		for p := range w {
			if w[p] <= 0 {
				continue
			}
			want[p] = r.RRUs * w[p] / total
			if r.CountBased {
				want[p] = math.Floor(want[p])
			} else if p == last {
				want[p] = r.RRUs - assigned
			}
			assigned += want[p]
		}
		if r.CountBased && assigned <= 0 {
			want[heaviest] = r.RRUs
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("reservation %d (count-based %v, C_r %v, weights %v): shares %v, want %v",
				r.ID, r.CountBased, r.RRUs, w, got, want)
		}
		lo := r.RRUs - float64(plan.K)
		if !r.CountBased {
			lo = math.Nextafter(r.RRUs, math.Inf(-1)) // exactly C_r
		}
		if sum <= lo || sum > r.RRUs {
			t.Errorf("reservation %d (count-based %v) shares sum to %v, want within (%v, %v]",
				r.ID, r.CountBased, sum, lo, r.RRUs)
		}
	}
}

// TestSplitDemandsFollowsHoldings checks the stability-first rule: a
// reservation already holding usable servers splits proportionally to those
// holdings, so a service living entirely in one partition keeps its whole
// demand there and its sub-MIP pays no spurious moves.
func TestSplitDemandsFollowsHoldings(t *testing.T) {
	region, states := testRegion(t)
	plan, err := Split(region, states, 3)
	if err != nil {
		t.Fatal(err)
	}
	r := testReservation(0, 10)
	// Hand the reservation a few servers inside partition 1 only.
	b := broker.New(region)
	for _, id := range plan.Subsets[1][:5] {
		b.SetCurrent(id, r.ID)
	}
	states = b.Snapshot()

	demands := SplitDemands(region, states, []reservation.Reservation{r}, plan)
	for p, list := range demands {
		switch p {
		case 1:
			if len(list) != 1 || list[0].RRUs != r.RRUs {
				t.Fatalf("partition 1 got %+v, want the whole %v-RRU demand", list, r.RRUs)
			}
		default:
			if len(list) != 0 {
				t.Fatalf("partition %d got %+v, want nothing (all holdings are in partition 1)", p, list)
			}
		}
	}
}

// TestSplitDemandsCapacityRules covers the capacity-weighted path: a fresh
// reservation splits across all partitions roughly proportionally to
// eligible capacity, a SingleDC reservation only lands in partitions with
// MSBs in its DC, and an unserviceable one goes whole to partition 0 so the
// sub-solver still reports it.
func TestSplitDemandsCapacityRules(t *testing.T) {
	region, states := testRegion(t)
	plan, err := Split(region, states, 3)
	if err != nil {
		t.Fatal(err)
	}
	fresh := testReservation(0, 30)
	pinned := testReservation(1, 6)
	pinned.Policy.SingleDC = 0
	impossible := testReservation(2, 4)
	impossible.Policy.SingleDC = 99 // no such DC: nothing is eligible

	demands := SplitDemands(region, states,
		[]reservation.Reservation{fresh, pinned, impossible}, plan)

	counts := map[reservation.ID]int{}
	for p, list := range demands {
		for _, r := range list {
			counts[r.ID]++
			if r.ID == pinned.ID {
				ok := false
				for _, srv := range region.Servers {
					if srv.DC == 0 && plan.PartOfMSB[srv.MSB] == p {
						ok = true
					}
				}
				if !ok {
					t.Errorf("SingleDC=0 demand landed in partition %d with no DC-0 MSBs", p)
				}
			}
		}
	}
	if counts[fresh.ID] != plan.K {
		t.Errorf("fresh reservation split across %d partitions, want %d", counts[fresh.ID], plan.K)
	}
	if counts[impossible.ID] != 1 || len(demands[0]) == 0 {
		t.Errorf("unserviceable reservation split %d ways, want whole in partition 0", counts[impossible.ID])
	}
	found := false
	for _, r := range demands[0] {
		if r.ID == impossible.ID && r.RRUs == impossible.RRUs {
			found = true
		}
	}
	if !found {
		t.Error("unserviceable reservation's full demand not in partition 0")
	}
}

// TestSplitBalancesUsableCapacity checks the LPT goal: partition loads
// (usable servers) stay within one MSB's worth of each other on a uniform
// region, so no sub-MIP is starved of capacity relative to its demand share.
func TestSplitBalancesUsableCapacity(t *testing.T) {
	region, states := testRegion(t)
	plan, err := Split(region, states, 3)
	if err != nil {
		t.Fatal(err)
	}
	loads := make([]float64, plan.K)
	perMSB := float64(len(region.Servers)) / float64(region.NumMSBs)
	for p, sub := range plan.Subsets {
		loads[p] = float64(len(sub))
	}
	for p := 1; p < plan.K; p++ {
		if math.Abs(loads[p]-loads[0]) > perMSB {
			t.Errorf("partition loads %v spread more than one MSB (%v servers)", loads, perMSB)
		}
	}
}
