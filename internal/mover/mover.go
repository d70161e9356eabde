// Package mover implements the Online Mover, the RAS component that
// executes the async solver's decisions and handles the fast paths the
// solver is too slow for (paper §3.2–3.4, Figure 6 step 4):
//
//   - applying target bindings: preempting containers off a server, host
//     cleanup and OS re-configuration (host-profile switches), then flipping
//     ownership;
//   - replacing randomly-failed servers from the shared buffer within one
//     minute, well before the next hourly solve;
//   - loaning idle buffer capacity to elastic reservations and revoking it
//     when failures reclaim it.
//
// Correlated MSB failures deliberately require no mover action: the
// embedded buffers are already inside each reservation.
package mover

import (
	"ras/internal/allocator"
	"ras/internal/broker"
	"ras/internal/reservation"
	"ras/internal/topology"
)

// Stats counts mover activity.
type Stats struct {
	MovesInUse      int // moves that preempted running containers
	MovesUnused     int // moves of idle servers
	ProfileSwitches int // host-profile reconfigurations
	Replacements    int // random-failure replacements from the shared buffer
	ReplacementMiss int // failures with no eligible buffer server
	Loans           int // servers loaned to elastic reservations
	Revocations     int // loans revoked for failure handling
	Unplaced        int // preempted containers with no room left in their reservation
	FailedReplace   []topology.ServerID
}

// Mover executes binding changes against the broker.
type Mover struct {
	broker *broker.Broker
	region *topology.Region
	store  *reservation.Store
	alloc  *allocator.Allocator // optional; nil disables container handling
	stats  Stats
}

// New creates a mover. alloc may be nil when no container allocator is in
// the loop (pure capacity simulations).
func New(b *broker.Broker, store *reservation.Store, alloc *allocator.Allocator) *Mover {
	return &Mover{broker: b, region: b.Region(), store: store, alloc: alloc}
}

// Stats returns a copy of the accumulated counters.
func (m *Mover) Stats() Stats { return m.stats }

// ResetStats clears the counters (per-measurement-window accounting).
func (m *Mover) ResetStats() { m.stats = Stats{} }

// profileOf looks up a reservation's host profile ("" for the free pool and
// the shared buffer).
func (m *Mover) profileOf(id reservation.ID) string {
	if id < 0 || m.store == nil {
		return ""
	}
	r, err := m.store.Get(id)
	if err != nil {
		return ""
	}
	return r.HostProfile
}

// ApplyTargets moves every server whose target binding differs from its
// current one: preempt → clean up → reconfigure → rebind (§3.2). One in-place
// scan finds them; each server's state is read again when it moves, because
// an earlier move of the pass may have rescheduled containers onto it. It
// returns the number of servers moved.
func (m *Mover) ApplyTargets(now int64) int {
	var pending []topology.ServerID
	m.broker.Scan(func(st *broker.ServerState) {
		if st.Target != st.Current {
			pending = append(pending, st.ID)
		}
	})
	for _, id := range pending {
		st := m.broker.State(id)
		m.moveServer(&st, st.Target)
	}
	return len(pending)
}

// moveServer executes one ownership change.
func (m *Mover) moveServer(st *broker.ServerState, to reservation.ID) {
	inUse := st.MovePreempts()
	if m.alloc != nil && st.Containers > 0 {
		// Preempt: reschedule the containers inside their own reservation.
		m.reschedule(st.ID)
	}
	if m.profileOf(st.Current) != m.profileOf(to) {
		m.stats.ProfileSwitches++
	}
	if st.Current != reservation.Unassigned {
		if inUse {
			m.stats.MovesInUse++
		} else {
			m.stats.MovesUnused++
		}
	}
	m.broker.SetCurrent(st.ID, to)
}

// reschedule moves the server's containers to other servers of their own
// reservations, counting the ones that found no room.
func (m *Mover) reschedule(id topology.ServerID) {
	m.stats.Unplaced += len(m.alloc.Reschedule(id))
}

// HandleFailure reacts to one unavailability event. Random and ToR failures
// of servers inside guaranteed reservations are replaced from the shared
// buffer within the minute; correlated failures need no action (embedded
// buffers); recoveries return the server to service.
func (m *Mover) HandleFailure(ev broker.Event, now int64) {
	switch ev.Kind {
	case broker.RandomFailure, broker.ToRFailure:
		st := m.broker.State(ev.Server)
		if m.alloc != nil && st.Containers > 0 {
			m.reschedule(ev.Server) // containers flee the dead server
		}
		if st.Current < 0 {
			return // free pool or buffer server failed: nothing to replace
		}
		m.replaceFromBuffer(ev.Server, st.Current)
	case broker.CorrelatedFailure:
		// Embedded buffers absorb this; the allocator simply reschedules.
		if m.alloc != nil {
			m.reschedule(ev.Server)
		}
	case broker.Available:
		// Recovered server stays where it is; the next solve rebalances.
	}
}

// replaceFromBuffer moves one eligible shared-buffer server into the failed
// server's reservation. Loaned-out buffer servers are revoked if necessary.
func (m *Mover) replaceFromBuffer(failed topology.ServerID, into reservation.ID) {
	var rsv reservation.Reservation
	known := false // the store holds the reservation, so its eligibility applies
	if m.store != nil {
		if r, err := m.store.Get(into); err == nil {
			rsv, known = r, true
		}
	}
	failedType := m.region.Servers[failed].Type

	// Prefer identical hardware, then un-loaned servers: rank 0 is same type
	// and idle, rank 3 another type and loaned. The scan ascends by ID, so
	// the first server of the best rank wins.
	best, bestRank, bestLoaned := topology.ServerID(-1), 4, false
	m.broker.ScanReservation(reservation.SharedBuffer, func(st *broker.ServerState) {
		if st.Current != reservation.SharedBuffer || st.Unavail != broker.Available {
			return
		}
		t := m.region.Servers[st.ID].Type
		if known && rsv.Value(m.region.Catalog, t) <= 0 {
			return
		}
		loaned := st.LoanedTo != reservation.Unassigned
		rank := 0
		if t != failedType {
			rank = 2
		}
		if loaned {
			rank++
		}
		if rank < bestRank {
			best, bestRank, bestLoaned = st.ID, rank, loaned
		}
	})
	if best < 0 {
		m.stats.ReplacementMiss++
		m.stats.FailedReplace = append(m.stats.FailedReplace, failed)
		return
	}
	if bestLoaned {
		m.revoke(best)
	}
	m.broker.SetCurrent(best, into)
	m.stats.Replacements++
}

// LoanIdleBuffers hands idle shared-buffer servers to elastic reservations
// round-robin (§3.4) and returns the number of new loans.
func (m *Mover) LoanIdleBuffers(elastic []reservation.ID) int {
	if len(elastic) == 0 {
		return 0
	}
	var idle []topology.ServerID
	m.broker.ScanReservation(reservation.SharedBuffer, func(st *broker.ServerState) {
		if st.Current == reservation.SharedBuffer && st.LoanedTo == reservation.Unassigned &&
			st.Unavail == broker.Available && st.Containers == 0 {
			idle = append(idle, st.ID)
		}
	})
	for i, id := range idle {
		m.broker.SetLoan(id, elastic[i%len(elastic)])
	}
	m.stats.Loans += len(idle)
	return len(idle)
}

// revoke reclaims one loaned buffer server, evicting elastic containers.
func (m *Mover) revoke(id topology.ServerID) {
	if m.alloc != nil {
		m.alloc.Evict(id) // elastic workloads are preemptible by contract
	}
	m.broker.SetLoan(id, reservation.Unassigned)
	m.stats.Revocations++
}

// RevokeAllLoansFor reclaims the loan on one specific server (the
// emergency-grant path needs a targeted revoke).
func (m *Mover) RevokeAllLoansFor(id topology.ServerID) {
	if m.broker.State(id).LoanedTo != reservation.Unassigned {
		m.revoke(id)
	}
}

// RevokeAllLoans reclaims every elastic loan (e.g. at the start of a
// large-scale failure response) and returns the number revoked.
func (m *Mover) RevokeAllLoans() int {
	var loaned []topology.ServerID
	m.broker.Scan(func(st *broker.ServerState) {
		if st.LoanedTo != reservation.Unassigned {
			loaned = append(loaned, st.ID)
		}
	})
	for _, id := range loaned {
		m.revoke(id)
	}
	return len(loaned)
}
