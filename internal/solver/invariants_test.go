package solver

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"ras/internal/broker"
	"ras/internal/hardware"
	"ras/internal/reservation"
	"ras/internal/topology"
)

// TestQuickSolveInvariants is the randomized end-to-end check on the async
// solver: for random regions, reservation mixes, and broker states, every
// structural invariant of the output must hold —
//
//  1. each server is assigned to at most one reservation;
//  2. unplanned-unavailable servers are never assigned;
//  3. assigned servers are always hardware-eligible for their reservation;
//  4. SingleDC policies are never violated;
//  5. for every reservation, either the embedded-buffer capacity guarantee
//     holds (expression 6) or the solver reported soft slack.
func TestQuickSolveInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized solver invariants in -short mode")
	}
	// Fixed seed range: deterministic, debuggable, and still diverse.
	for seed := int64(1); seed <= 15; seed++ {
		if !invariantCheck(t, seed) {
			t.Fatalf("invariants violated at seed %d", seed)
		}
	}
}

// invariantCheck builds one randomized instance from the seed, solves it,
// and verifies the structural invariants. Shared with TestInvariantSweep.
func invariantCheck(t *testing.T, seed int64) bool {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		region, err := topology.Generate(topology.GenSpec{
			Name:           "quick",
			DCs:            1 + rng.Intn(3),
			MSBsPerDC:      1 + rng.Intn(3),
			RacksPerMSB:    2 + rng.Intn(3),
			ServersPerRack: 3 + rng.Intn(4),
			Seed:           seed,
		})
		if err != nil {
			t.Log(err)
			return false
		}
		b := broker.New(region)
		in := Input{Region: region, States: b.Snapshot()}

		classes := []hardware.Class{hardware.Web, hardware.Feed1, hardware.Feed2, hardware.DataStore, hardware.FleetAvg}
		nres := 1 + rng.Intn(5)
		for i := 0; i < nres; i++ {
			r := reservation.Reservation{
				ID:         reservation.ID(i),
				Name:       "q",
				Class:      classes[rng.Intn(len(classes))],
				RRUs:       1 + rng.Float64()*float64(len(region.Servers))/float64(nres)*0.5,
				CountBased: rng.Intn(2) == 0,
				Policy:     reservation.DefaultPolicy(),
			}
			if rng.Intn(4) == 0 {
				r.Policy.SingleDC = rng.Intn(region.NumDCs)
			}
			in.Reservations = append(in.Reservations, r)
		}
		// Random current assignments, failures, and containers.
		for i := range in.States {
			switch rng.Intn(6) {
			case 0:
				in.States[i].Current = reservation.ID(rng.Intn(nres))
				in.States[i].Containers = rng.Intn(3)
			case 1:
				in.States[i].Unavail = broker.RandomFailure
			case 2:
				in.States[i].Unavail = broker.PlannedMaintenance
			}
		}

		res, err := Solve(context.Background(), in, Config{
			Phase1TimeLimit: 3 * time.Second, Phase2TimeLimit: time.Second,
			MaxNodes: 40, SharedBufferFraction: -1,
		})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}

		// (1) is structural (Targets is a single slice); check (2)-(4).
		for i := range in.States {
			tgt := res.Targets[i]
			if tgt < 0 {
				continue
			}
			if int(tgt) >= nres {
				t.Logf("seed %d: server %d assigned to unknown reservation %d", seed, i, tgt)
				return false
			}
			st := &in.States[i]
			if st.Unavail != broker.Available && st.Unavail != broker.PlannedMaintenance {
				t.Logf("seed %d: failed server %d assigned", seed, i)
				return false
			}
			r := &in.Reservations[tgt]
			ty := region.Servers[i].Type
			v := hardware.RRU(region.Catalog.Type(ty), r.Class)
			if v <= 0 || !r.Eligible(ty, v) {
				t.Logf("seed %d: ineligible server %d (type %d) in reservation %d", seed, i, ty, tgt)
				return false
			}
			if r.Policy.SingleDC >= 0 && region.Servers[i].DC != r.Policy.SingleDC {
				t.Logf("seed %d: SingleDC violated for server %d", seed, i)
				return false
			}
		}

		// (5): capacity guarantee or reported slack.
		totalSlack := res.Phase1.SoftSlack + res.Phase2.SoftSlack
		shortfall := 0.0
		for ri := range in.Reservations {
			r := &in.Reservations[ri]
			perMSB := make([]float64, region.NumMSBs)
			total := 0.0
			for i := range region.Servers {
				if res.Targets[i] != r.ID {
					continue
				}
				srv := &region.Servers[i]
				v := r.Value(region.Catalog, srv.Type, srv.DC)
				perMSB[srv.MSB] += v
				total += v
			}
			worst := 0.0
			for _, v := range perMSB {
				if v > worst {
					worst = v
				}
			}
			if short := r.RRUs - (total - worst); short > 0 {
				shortfall += short
			}
		}
		if shortfall > totalSlack+1 { // +1: phase-2 refinements may shift sub-server amounts
			t.Logf("seed %d: shortfall %.2f exceeds reported slack %.2f", seed, shortfall, totalSlack)
			return false
		}
		return true
	}
	return check(seed)
}

// TestStorageQuorumSpread exercises the §3.3.2 storage-service contract:
// a replication-based storage service sets SpreadMSB so that no MSB holds
// enough replicas to break quorum, and the solver must deliver that spread.
func TestStorageQuorumSpread(t *testing.T) {
	region := testRegion(t, 2, 3, 6, 8, 31) // 6 MSBs
	// 3-way replication: quorum (2 of 3) survives as long as no single MSB
	// holds ≥ 1/3 of the capacity. Cap per-MSB share at 25% for margin.
	storage := reservation.Reservation{
		ID: 0, Name: "storage", Class: hardware.DataStore,
		RRUs: 60, CountBased: true,
		Policy: reservation.Policy{SingleDC: -1, SpreadMSB: 0.25},
	}
	res, err := Solve(context.Background(), freshInput(region, []reservation.Reservation{storage}),
		Config{Phase1TimeLimit: 6 * time.Second, Phase2TimeLimit: time.Second,
			MaxNodes: 120, SharedBufferFraction: -1})
	if err != nil {
		t.Fatal(err)
	}
	share := maxMSBShare(region, res.Targets, &storage)
	if share > 1.0/3 {
		t.Fatalf("max MSB share %.2f ≥ 1/3: an MSB failure could break a 3-replica quorum", share)
	}
}
