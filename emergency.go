package ras

import (
	"fmt"
	"sort"

	"ras/internal/broker"
	"ras/internal/reservation"
	"ras/internal/topology"
)

// EmergencyGrant implements the out-of-band capacity path of paper §5.4:
// when capacity is needed to handle an urgent site outage, waiting up to an
// hour for the next solve is not acceptable. EmergencyGrant writes server
// assignments directly to the resource broker, granting immediate capacity
// WITHOUT obeying the placement guarantees — no spread optimization, no
// affinity, no buffer sizing. Future solves correct whatever this breaks.
//
// Servers are taken in order of increasing disruption: the free pool first,
// then idle shared-buffer servers (shrinking the random-failure buffer —
// the risk §5.3 warns about, so the caller must hold that pager), then
// loaned-out buffer servers (revoking elastic work).
//
// It returns the servers granted. If fewer than the requested RRUs could be
// found, the remainder is reported in the error while the partial grant
// stays in place — exactly what an emergency wants.
func (s *System) EmergencyGrant(id ReservationID, rrus float64) ([]ServerID, error) {
	r, err := s.store.Get(id)
	if err != nil {
		return nil, err
	}

	type cand struct {
		id   topology.ServerID
		v    float64
		tier int // 0 free, 1 idle buffer, 2 loaned buffer
	}
	var cands []cand
	snap := s.broker.Snapshot()
	for i := range snap {
		st := &snap[i]
		if st.Unavail != broker.Available {
			continue
		}
		v := r.Value(s.region.Catalog, s.region.Servers[st.ID].Type)
		if v <= 0 {
			continue
		}
		switch {
		case st.Current == reservation.Unassigned:
			cands = append(cands, cand{st.ID, v, 0})
		case st.Current == reservation.SharedBuffer && st.LoanedTo == reservation.Unassigned:
			cands = append(cands, cand{st.ID, v, 1})
		case st.Current == reservation.SharedBuffer:
			cands = append(cands, cand{st.ID, v, 2})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].tier != cands[j].tier {
			return cands[i].tier < cands[j].tier
		}
		if cands[i].v != cands[j].v {
			return cands[i].v > cands[j].v // biggest servers first: fewer moves
		}
		return cands[i].id < cands[j].id
	})

	var granted []topology.ServerID
	need := rrus
	for _, c := range cands {
		if need <= 0 {
			break
		}
		if c.tier == 2 {
			// Revoke the elastic loan before reassigning.
			s.mover.RevokeAllLoansFor(c.id)
		}
		s.broker.SetCurrent(c.id, id)
		// Leave Target untouched: the next solve sees the emergency binding
		// as current state and re-optimizes around (or away from) it.
		granted = append(granted, c.id)
		need -= c.v
	}
	if need > 0 {
		return granted, fmt.Errorf("ras: emergency grant short by %.1f RRUs (granted %d servers)",
			need, len(granted))
	}
	return granted, nil
}
