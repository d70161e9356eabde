// Package greedy implements Twine's previous production server-assignment
// strategy (paper §1.1): a shared region-wide free-server pool from which
// servers are acquired greedily, on the critical path, whenever a
// reservation needs capacity. It makes no attempt to spread across fault
// domains, balance power, or minimize cross-datacenter traffic — which is
// exactly why it is the baseline that RAS improves on in Figures 12, 14,
// and 15.
package greedy

import (
	"sort"

	"ras/internal/broker"
	"ras/internal/reservation"
	"ras/internal/topology"
)

// Assigner acquires servers for reservations greedily from the free pool.
type Assigner struct {
	region *topology.Region
	broker *broker.Broker
}

// New creates a greedy assigner over the broker.
func New(b *broker.Broker) *Assigner {
	return &Assigner{region: b.Region(), broker: b}
}

// rru computes the value of a server for a reservation.
func (a *Assigner) rru(id topology.ServerID, r *reservation.Reservation) float64 {
	return r.Value(a.region.Catalog, a.region.Servers[id].Type)
}

// Fulfill greedily acquires free servers until the reservation's RRU demand
// is met, preferring dense racks (the "fill locally first" behaviour that
// concentrates services in few MSBs). It returns the servers acquired and
// the RRUs still missing (0 when fulfilled). Acquired servers are bound in
// the broker immediately — this is the on-critical-path assignment RAS
// removed.
func (a *Assigner) Fulfill(r *reservation.Reservation) (acquired []topology.ServerID, missing float64) {
	have := 0.0
	for _, id := range a.broker.ServersIn(r.ID) {
		have += a.rru(id, r)
	}
	need := r.RRUs - have
	if need <= 0 {
		return nil, 0
	}

	// Candidate free servers, ordered by (MSB, rack, ID): the greedy
	// allocator walks the pool in deployment order, which concentrates a
	// reservation's footprint into the first MSBs with eligible hardware.
	snapshot := a.broker.Snapshot()
	var free []topology.ServerID
	for i := range snapshot {
		st := &snapshot[i]
		if st.Current != reservation.Unassigned || st.Unavail != broker.Available {
			continue
		}
		if a.rru(st.ID, r) <= 0 {
			continue
		}
		free = append(free, st.ID)
	}
	sort.Slice(free, func(i, j int) bool {
		si, sj := &a.region.Servers[free[i]], &a.region.Servers[free[j]]
		if si.MSB != sj.MSB {
			return si.MSB < sj.MSB
		}
		if si.Rack != sj.Rack {
			return si.Rack < sj.Rack
		}
		return si.ID < sj.ID
	})

	for _, id := range free {
		if need <= 0 {
			break
		}
		a.broker.SetCurrent(id, r.ID)
		a.broker.SetTarget(id, r.ID)
		acquired = append(acquired, id)
		need -= a.rru(id, r)
	}
	if need < 0 {
		need = 0
	}
	return acquired, need
}

// Release returns servers of a reservation to the free pool until its RRU
// surplus is gone (decommission path: "when the last container running on a
// server is decommissioned, the server is returned").
func (a *Assigner) Release(r *reservation.Reservation) (released []topology.ServerID) {
	have := 0.0
	members := a.broker.ServersIn(r.ID)
	for _, id := range members {
		have += a.rru(id, r)
	}
	for _, id := range members {
		if have <= r.RRUs {
			break
		}
		st := a.broker.State(id)
		if st.Containers > 0 {
			continue
		}
		v := a.rru(id, r)
		if have-v < r.RRUs {
			continue
		}
		a.broker.SetCurrent(id, reservation.Unassigned)
		a.broker.SetTarget(id, reservation.Unassigned)
		have -= v
		released = append(released, id)
	}
	return released
}

// FulfillAll runs Fulfill for every reservation in ID order and reports the
// total missing RRUs across reservations.
func (a *Assigner) FulfillAll(rsvs []reservation.Reservation) (missingTotal float64) {
	ordered := append([]reservation.Reservation(nil), rsvs...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].ID < ordered[j].ID })
	for i := range ordered {
		if ordered[i].Elastic {
			continue
		}
		_, missing := a.Fulfill(&ordered[i])
		missingTotal += missing
	}
	return missingTotal
}
