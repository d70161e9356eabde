package main

import (
	"fmt"
	"hash/fnv"

	"ras/internal/broker"
	"ras/internal/hardware"
	"ras/internal/reservation"
	"ras/internal/topology"
)

// verify checks a round's Targets against the inputs the round started from,
// using none of the solver's own bookkeeping. A wrong length, a usable
// server whose target is no live reservation, Unassigned or SharedBuffer, or
// a failed server that changes binding is an incorrect output and returned as
// the error. A reservation whose usable targeted
// servers, recounted here, do not cover its requested RRUs is returned as
// shortfall: the solver softens capacity, so that is a failed operation and
// not a wrong answer.
func verify(region *topology.Region, rsvs []reservation.Reservation, states []broker.ServerState,
	targets []reservation.ID) (shortfall string, err error) {
	if len(targets) != len(region.Servers) {
		return "", fmt.Errorf("verify: %d targets for %d servers", len(targets), len(region.Servers))
	}
	byID := make(map[reservation.ID]*reservation.Reservation, len(rsvs))
	for i := range rsvs {
		byID[rsvs[i].ID] = &rsvs[i]
	}
	got := make(map[reservation.ID]float64, len(rsvs))
	for i, tgt := range targets {
		// Unplanned failures are not capacity; planned maintenance is (the
		// embedded buffer covers it, paper §3.3.1). A failed server keeps the
		// binding it had, even to a reservation deleted since: it "returns
		// home on recovery" (solver.accountMoves).
		if u := states[i].Unavail; u != broker.Available && u != broker.PlannedMaintenance {
			if tgt != states[i].Current {
				return "", fmt.Errorf("verify: failed server %d moves from %d to %d", i, states[i].Current, tgt)
			}
			continue
		}
		if tgt == reservation.Unassigned || tgt == reservation.SharedBuffer {
			continue
		}
		r, ok := byID[tgt]
		if !ok {
			return "", fmt.Errorf("verify: server %d targets reservation %d, which does not exist", i, tgt)
		}
		srv := region.Server(topology.ServerID(i))
		if r.Policy.SingleDC >= 0 && srv.DC != r.Policy.SingleDC {
			continue
		}
		v := hardware.RRU(region.Catalog.Type(srv.Type), r.Class)
		if !r.Eligible(srv.Type, v) {
			continue
		}
		if r.CountBased {
			v = 1
		}
		got[tgt] += v
	}
	for i := range rsvs {
		r := &rsvs[i]
		if !r.Elastic && got[r.ID] < r.RRUs-1e-6 {
			return fmt.Sprintf("reservation %d (%s) has %.1f of %.1f RRUs", r.ID, r.Name, got[r.ID], r.RRUs), nil
		}
	}
	return "", nil
}

// checksum is the FNV-64a hash of the targets, the identity the two passes
// must agree on round by round.
func checksum(targets []reservation.ID) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, t := range targets {
		b[0], b[1], b[2], b[3] = byte(t), byte(t>>8), byte(t>>16), byte(t>>24)
		_, _ = h.Write(b[:]) // a hash.Hash never returns an error
	}
	return h.Sum64()
}
