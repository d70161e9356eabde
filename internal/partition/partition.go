// Package partition implements the POP-style problem partitioner behind the
// "pop" solver backend: it splits a region into k sub-regions along MSB
// boundaries and splits each reservation's demand C_r across them, so that k
// independent sub-MIPs can be solved concurrently and recombined (see
// "Solving Large-Scale Granular Resource Allocation Problems Efficiently
// with POP", PAPERS.md).
//
// Two invariants make the recombination sound and the whole pipeline
// deterministic:
//
//   - Partitions never split an MSB. Racks are contained in MSBs, so rack
//     and MSB spread goals (expressions 2–4 of the RAS MIP) stay fully
//     inside one sub-problem, and phase-1 symmetry groups — keyed on
//     (type, MSB, current, in-use) — never straddle a partition boundary.
//   - Everything is a pure function of the snapshot: MSBs are balanced by a
//     greedy longest-processing-time assignment over sorted usable-server
//     counts, and demand shares are computed in fixed index order. No maps
//     are iterated unsorted, no randomness, no wall-clock.
package partition

import (
	"fmt"
	"hash/fnv"

	"ras/internal/broker"
	"ras/internal/reservation"
	"ras/internal/topology"
)

// Plan is a deterministic partitioning of a region into K sub-regions along
// MSB boundaries.
type Plan struct {
	// K is the effective partition count (the requested k clamped to
	// [1, NumMSBs]).
	K int
	// PartOfMSB maps every MSB index to its partition.
	PartOfMSB []int
	// Subsets holds, per partition, the ascending server IDs it owns —
	// every server of the region (usable or not) appears in exactly one
	// subset, so merged sub-results cover the whole fleet and each sub-solve
	// sees its servers' full broker state (including failed servers that
	// must keep their return-home binding).
	Subsets [][]topology.ServerID
	// Sig fingerprints the plan (k plus the MSB→partition map). Cross-round
	// warm-start state is keyed on it: a changed signature means the
	// sub-problems were re-drawn and per-partition bases no longer apply.
	Sig uint64
}

// Split partitions the region into (at most) k sub-regions. MSBs are
// balanced across partitions by usable-server count with a greedy
// longest-processing-time rule: MSBs in descending usable-count order (ties
// by ascending MSB index) each go to the currently lightest partition (ties
// by ascending partition index). The result depends only on the snapshot.
func Split(region *topology.Region, states []broker.ServerState, k int) (*Plan, error) {
	if region == nil {
		return nil, fmt.Errorf("partition: nil region")
	}
	if len(states) != len(region.Servers) {
		return nil, fmt.Errorf("partition: %d states for %d servers", len(states), len(region.Servers))
	}
	if k < 1 {
		k = 1
	}
	// Every partition needs at least two MSBs: the embedded-buffer row
	// (expression 6, Σ − max_MSB ≥ C_r) is unsatisfiable for any positive
	// demand inside a single-MSB sub-region — its left-hand side is
	// identically zero — so a finer split would make sub-MIPs optimally
	// serve nothing and push the whole solve onto the repair pass. The floor
	// of 1 keeps a zero- or one-MSB region at K=1 rather than minting empty
	// partitions.
	maxK := region.NumMSBs / 2
	if maxK < 1 {
		maxK = 1
	}
	if k > maxK {
		k = maxK
	}

	usablePerMSB := make([]int, region.NumMSBs)
	for i := range region.Servers {
		if states[i].Usable() {
			usablePerMSB[region.Servers[i].MSB]++
		}
	}

	// LPT: biggest MSBs first, each to the lightest partition so far.
	order := make([]int, region.NumMSBs)
	for m := range order {
		order[m] = m
	}
	// Insertion sort keeps the tie-break (ascending MSB index) explicit and
	// stable without a comparator allocation.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0; j-- {
			a, b := order[j-1], order[j]
			if usablePerMSB[a] >= usablePerMSB[b] {
				break
			}
			order[j-1], order[j] = b, a
		}
	}

	plan := &Plan{K: k, PartOfMSB: make([]int, region.NumMSBs)}
	loads := make([]int, k)
	for _, m := range order {
		best := 0
		for p := 1; p < k; p++ {
			if loads[p] < loads[best] {
				best = p
			}
		}
		plan.PartOfMSB[m] = best
		loads[best] += usablePerMSB[m]
	}

	plan.Subsets = make([][]topology.ServerID, k)
	for i := range region.Servers {
		p := plan.PartOfMSB[region.Servers[i].MSB]
		plan.Subsets[p] = append(plan.Subsets[p], topology.ServerID(i))
	}

	h := fnv.New64a()
	buf := make([]byte, 0, 4+4*len(plan.PartOfMSB))
	buf = appendUint32(buf, uint32(k))
	for _, p := range plan.PartOfMSB {
		buf = appendUint32(buf, uint32(p))
	}
	h.Write(buf) //raslint:allow errdrop hash.Hash documents that Write never returns an error
	plan.Sig = h.Sum64()
	return plan, nil
}

func appendUint32(b []byte, v uint32) []byte {
	return append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// SplitDemands splits every reservation's demand C_r across the plan's
// partitions and returns the per-partition reservation lists (indexed by
// partition, reservations in input order).
//
// The splitting rule favours stability first, POP-style capacity
// proportionality second: a reservation that already holds usable servers
// splits proportionally to its current holdings per partition, so sub-MIPs
// mostly keep servers where they are; a fresh reservation splits
// proportionally to its eligible usable capacity per partition. Partitions
// with a zero share are skipped entirely (smaller sub-models); the last
// positive share absorbs the floating-point remainder so the shares sum to
// exactly C_r. A reservation nothing in the region can serve goes whole to
// partition 0 so the sub-solver still reports it unserviceable (§5.3).
// Elastic reservations pass through unsplit (the solver ignores them).
func SplitDemands(region *topology.Region, states []broker.ServerState,
	rsvs []reservation.Reservation, plan *Plan) [][]reservation.Reservation {

	out := make([][]reservation.Reservation, plan.K)
	for ri := range rsvs {
		r := &rsvs[ri]
		if r.Elastic {
			out[0] = append(out[0], *r)
			continue
		}
		caps := make([]float64, plan.K)
		held := make([]float64, plan.K)
		capTotal, heldTotal := 0.0, 0.0
		for i := range region.Servers {
			st := &states[i]
			if !st.Usable() {
				continue
			}
			srv := &region.Servers[i]
			v := r.ValueAt(region.Catalog, srv.Type, srv.DC)
			if v <= 0 {
				continue
			}
			p := plan.PartOfMSB[srv.MSB]
			caps[p] += v
			capTotal += v
			if st.Current == r.ID {
				held[p] += v
				heldTotal += v
			}
		}
		weights, total := caps, capTotal
		if heldTotal > 0 {
			weights, total = held, heldTotal
		}
		if total <= 0 {
			out[0] = append(out[0], *r)
			continue
		}
		// Fixed-order remainder accounting: every partition but the last
		// positive one gets its proportional share, the last absorbs the rest.
		last := -1
		for p := 0; p < plan.K; p++ {
			if weights[p] > 0 {
				last = p
			}
		}
		assigned := 0.0
		for p := 0; p < plan.K; p++ {
			if weights[p] <= 0 {
				continue
			}
			share := r.RRUs * weights[p] / total
			if p == last {
				share = r.RRUs - assigned
			}
			assigned += share
			sub := *r
			sub.RRUs = share
			out[p] = append(out[p], sub)
		}
	}
	return out
}
