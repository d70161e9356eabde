package mover

import (
	"sort"

	"ras/internal/broker"
	"ras/internal/hardware"
	"ras/internal/reservation"
	"ras/internal/topology"
)

// This file keeps the mover's failure and loan paths as they were before
// they read the broker in place: a test-only reference in which
// replaceFromBuffer, LoanIdleBuffers and RevokeAllLoans copy every server
// state and replaceFromBuffer sorts a candidate slice. It differs from that
// mover only in names (refMover), in driving the reference allocator
// (allocator_ref_test.go), and in counting Stats.Unplaced in HandleFailure,
// so TestAllocatorMatchesReference and FuzzAllocatorMatchesReference can
// require identical Stats. ApplyTargets is left out: it now reads each
// server when it moves it, which is a fix, not the same decisions
// (TestApplyTargetsNeverStrandsContainers).

// refMover executes failure replacement and elastic loans against the broker.
type refMover struct {
	broker *broker.Broker
	region *topology.Region
	store  *reservation.Store
	alloc  *refAllocator
	stats  Stats
}

// HandleFailure reacts to one unavailability event. Random and ToR failures
// of servers inside guaranteed reservations are replaced from the shared
// buffer within the minute; correlated failures need no action (embedded
// buffers); recoveries return the server to service.
func (m *refMover) HandleFailure(ev broker.Event, now int64) {
	switch ev.Kind {
	case broker.RandomFailure, broker.ToRFailure:
		st := m.broker.State(ev.Server)
		if st.Containers > 0 {
			m.stats.Unplaced += len(m.alloc.Reschedule(ev.Server)) // containers flee the dead server
		}
		if st.Current < 0 {
			return // free pool or buffer server failed: nothing to replace
		}
		m.replaceFromBuffer(ev.Server, st.Current)
	case broker.CorrelatedFailure:
		// Embedded buffers absorb this; the allocator simply reschedules.
		m.stats.Unplaced += len(m.alloc.Reschedule(ev.Server))
	case broker.Available:
		// Recovered server stays where it is; the next solve rebalances.
	}
}

// replaceFromBuffer moves one eligible shared-buffer server into the failed
// server's reservation. Loaned-out buffer servers are revoked if necessary.
// A deleted reservation gets none.
func (m *refMover) replaceFromBuffer(failed topology.ServerID, into reservation.ID) {
	rsv, err := m.store.Get(into)
	if err != nil {
		return
	}
	failedType := m.region.Servers[failed].Type

	snap := m.broker.Snapshot()
	type cand struct {
		id     topology.ServerID
		loaned bool
		same   bool // same hardware type as the failed server
	}
	var cands []cand
	for i := range snap {
		st := &snap[i]
		if st.Current != reservation.SharedBuffer || st.Unavail != broker.Available {
			continue
		}
		srv := &m.region.Servers[st.ID]
		t := srv.Type
		if rsv.Policy.SingleDC >= 0 && srv.DC != rsv.Policy.SingleDC {
			continue
		}
		if v := hardware.RRU(m.region.Catalog.Type(t), rsv.Class); !rsv.Eligible(t, v) {
			continue
		}
		cands = append(cands, cand{
			id:     st.ID,
			loaned: st.LoanedTo != reservation.Unassigned,
			same:   t == failedType,
		})
	}
	if len(cands) == 0 {
		m.stats.ReplacementMiss++
		return
	}
	// Prefer identical hardware, then un-loaned servers.
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].same != cands[j].same {
			return cands[i].same
		}
		if cands[i].loaned != cands[j].loaned {
			return !cands[i].loaned
		}
		return cands[i].id < cands[j].id
	})
	c := cands[0]
	if c.loaned {
		m.revoke(c.id)
	}
	m.broker.SetCurrent(c.id, into)
	m.stats.Replacements++
}

// LoanIdleBuffers hands idle shared-buffer servers to elastic reservations
// round-robin (§3.4) and returns the number of new loans.
func (m *refMover) LoanIdleBuffers(elastic []reservation.ID) int {
	if len(elastic) == 0 {
		return 0
	}
	snap := m.broker.Snapshot()
	loans := 0
	next := 0
	for i := range snap {
		st := &snap[i]
		if st.Current != reservation.SharedBuffer ||
			st.LoanedTo != reservation.Unassigned ||
			st.Unavail != broker.Available ||
			st.Containers > 0 {
			continue
		}
		m.broker.SetLoan(st.ID, elastic[next%len(elastic)])
		next++
		loans++
		m.stats.Loans++
	}
	return loans
}

// revoke reclaims one loaned buffer server, evicting elastic containers.
func (m *refMover) revoke(id topology.ServerID) {
	m.alloc.Evict(id) // elastic workloads are preemptible by contract
	m.broker.SetLoan(id, reservation.Unassigned)
	m.stats.Revocations++
}

// RevokeAllLoansFor reclaims the loan on one specific server (the
// emergency-grant path needs a targeted revoke).
func (m *refMover) RevokeAllLoansFor(id topology.ServerID) {
	if m.broker.State(id).LoanedTo != reservation.Unassigned {
		m.revoke(id)
	}
}

// RevokeAllLoans reclaims every elastic loan (e.g. at the start of a
// large-scale failure response) and returns the number revoked.
func (m *refMover) RevokeAllLoans() int {
	snap := m.broker.Snapshot()
	n := 0
	for i := range snap {
		if snap[i].LoanedTo != reservation.Unassigned {
			m.revoke(snap[i].ID)
			n++
		}
	}
	return n
}
