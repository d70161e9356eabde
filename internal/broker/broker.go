// Package broker implements the Resource Broker: the highly-available store
// that virtualizes region capacity (paper §3.1, Figure 6). For every server
// it maintains the current reservation binding, the target binding written
// by the async solver, elastic-loan state, container occupancy, and
// unavailability events written by the health-check service. The Twine
// allocator and the online mover subscribe to unavailability events via
// callbacks.
package broker

import (
	"fmt"
	"sync"

	"ras/internal/reservation"
	"ras/internal/topology"
)

// UnavailKind classifies an unavailability event (paper §2.5).
type UnavailKind int8

// Unavailability kinds.
const (
	Available UnavailKind = iota
	// RandomFailure is a server-scope hardware/software failure.
	RandomFailure
	// ToRFailure is a top-of-rack switch failure taking out one rack.
	ToRFailure
	// CorrelatedFailure is an MSB-scope power/network failure.
	CorrelatedFailure
	// PlannedMaintenance is operator-scheduled downtime. Unlike failures,
	// maintenance capacity is treated as usable by the solver because the
	// embedded buffer already covers it (§3.3.1).
	PlannedMaintenance
)

func (k UnavailKind) String() string {
	switch k {
	case Available:
		return "available"
	case RandomFailure:
		return "random-failure"
	case ToRFailure:
		return "tor-failure"
	case CorrelatedFailure:
		return "correlated-failure"
	case PlannedMaintenance:
		return "planned-maintenance"
	}
	return fmt.Sprintf("UnavailKind(%d)", int8(k))
}

// Planned reports whether the kind is operator-controlled.
func (k UnavailKind) Planned() bool { return k == PlannedMaintenance }

// ServerState is the broker's record for one server. Times are virtual
// simulation seconds.
type ServerState struct {
	ID      topology.ServerID
	Current reservation.ID // reservation the server belongs to now
	Target  reservation.ID // binding intent written by the async solver
	// LoanedTo is the elastic reservation currently borrowing this server,
	// or reservation.Unassigned when not loaned (§3.4).
	LoanedTo   reservation.ID
	Containers int // running containers (allocator-maintained)
	Unavail    UnavailKind
	UnavailEnd int64 // virtual time when the event clears (0 = unknown)
	// FlashWear is the server's SSD wear level in [0,1] (1 = end of life),
	// reported by the fleet telemetry pipeline. The solver's IO-aware
	// placement (paper §5.2) steers write-heavy reservations away from
	// worn flash.
	FlashWear float64
}

// InUse reports whether the server hosts running containers.
func (s *ServerState) InUse() bool { return s.Containers > 0 }

// MovePreempts reports whether moving the server out of its current
// reservation preempts that reservation's running containers: the in-use
// move-cost class M_s of the MIP's expression 1 (§3.5.3). A server on loan
// runs the borrower's containers, so moving it is an idle move.
func (s *ServerState) MovePreempts() bool {
	return s.Containers > 0 && s.LoanedTo == reservation.Unassigned
}

// Usable reports whether the server counts as capacity: the availability
// constraint excludes unplanned failures, while planned maintenance remains
// usable capacity covered by embedded buffers (§3.3.1).
func (s *ServerState) Usable() bool { return s.Unavail == Available || s.Unavail.Planned() }

// Event notifies subscribers of a server availability transition.
type Event struct {
	Server topology.ServerID
	Kind   UnavailKind // Available when the server recovered
	Prev   UnavailKind
	Time   int64
}

// Broker is the resource broker. All methods are safe for concurrent use.
type Broker struct {
	mu     sync.RWMutex
	region *topology.Region
	states []ServerState
	subs   []func(Event)
	// version increments on every mutation, letting pollers detect change.
	version uint64
	// changed stamps each server with the version of its last solve-relevant
	// write (current binding, loan, container occupancy, availability, flash
	// wear), so ChangedSince can answer "which servers differ between version
	// v and now" without diffing snapshots. Target writes are deliberately not
	// stamped: targets are solver *output* and do not feed the next solve's
	// model.
	changed []uint64
}

// New creates a broker over the region with every server unassigned and
// available.
func New(region *topology.Region) *Broker {
	n := len(region.Servers)
	b := &Broker{region: region, states: make([]ServerState, n), changed: make([]uint64, n)}
	for i := range b.states {
		b.states[i] = ServerState{
			ID:       topology.ServerID(i),
			Current:  reservation.Unassigned,
			Target:   reservation.Unassigned,
			LoanedTo: reservation.Unassigned,
		}
	}
	return b
}

// Region returns the physical topology the broker manages.
func (b *Broker) Region() *topology.Region { return b.region }

// Version reports the current mutation counter.
func (b *Broker) Version() uint64 {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.version
}

// ChangedSince lists the servers whose solve-relevant state may have changed
// after version since (a value previously returned by Version or
// SnapshotAt), ascending and duplicate-free. The list can be a superset —
// a write that set a field to its existing value still stamps — but never
// misses a change. ok is false only for a version this broker has not
// reached.
func (b *Broker) ChangedSince(since uint64) (ids []topology.ServerID, ok bool) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if since > b.version {
		return nil, false
	}
	for i, v := range b.changed {
		if v > since {
			ids = append(ids, topology.ServerID(i))
		}
	}
	return ids, true
}

// Subscribe registers a callback for availability transitions. Callbacks run
// synchronously on the mutating goroutine after the broker's lock has been
// released, so they may call back into the broker.
func (b *Broker) Subscribe(fn func(Event)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.subs = append(b.subs, fn)
}

// State returns a copy of the server's record.
func (b *Broker) State(id topology.ServerID) ServerState {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.states[id]
}

// SetCurrent records that the server now belongs to res, clearing any
// elastic loan.
func (b *Broker) SetCurrent(id topology.ServerID, res reservation.ID) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.states[id].Current = res
	b.states[id].LoanedTo = reservation.Unassigned
	b.version++
	b.changed[id] = b.version
}

// SetTarget writes the solver's binding intent for the server.
func (b *Broker) SetTarget(id topology.ServerID, res reservation.ID) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.states[id].Target = res
	b.version++
}

// SetTargets writes many binding intents in one critical section. Solve
// outputs are applied atomically so the mover never sees a half-written
// assignment (Figure 6 step 3).
func (b *Broker) SetTargets(targets map[topology.ServerID]reservation.ID) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for id, res := range targets {
		b.states[id].Target = res
	}
	b.version++
}

// SetLoan marks the server as loaned to an elastic reservation (or clears
// the loan with reservation.Unassigned).
func (b *Broker) SetLoan(id topology.ServerID, elastic reservation.ID) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.states[id].LoanedTo = elastic
	b.version++
	b.changed[id] = b.version
}

// SetContainers records the number of running containers on the server.
func (b *Broker) SetContainers(id topology.ServerID, n int) {
	if n < 0 {
		panic(fmt.Sprintf("broker: negative container count %d", n))
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.states[id].Containers = n
	b.version++
	b.changed[id] = b.version
}

// SetFlashWear records the server's SSD wear level in [0,1].
func (b *Broker) SetFlashWear(id topology.ServerID, wear float64) {
	if wear < 0 || wear > 1 {
		panic(fmt.Sprintf("broker: flash wear %v outside [0,1]", wear))
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.states[id].FlashWear = wear
	b.version++
	b.changed[id] = b.version
}

// SetUnavailable records an unavailability event and notifies subscribers.
func (b *Broker) SetUnavailable(id topology.ServerID, kind UnavailKind, now, until int64) {
	if kind == Available {
		b.ClearUnavailable(id, now)
		return
	}
	b.mu.Lock()
	prev := b.states[id].Unavail
	b.states[id].Unavail = kind
	b.states[id].UnavailEnd = until
	b.version++
	b.changed[id] = b.version
	subs := append([]func(Event){}, b.subs...)
	b.mu.Unlock()
	ev := Event{Server: id, Kind: kind, Prev: prev, Time: now}
	for _, fn := range subs {
		fn(ev)
	}
}

// ClearUnavailable marks the server available again and notifies
// subscribers.
func (b *Broker) ClearUnavailable(id topology.ServerID, now int64) {
	b.mu.Lock()
	prev := b.states[id].Unavail
	if prev == Available {
		b.mu.Unlock()
		return
	}
	b.states[id].Unavail = Available
	b.states[id].UnavailEnd = 0
	b.version++
	b.changed[id] = b.version
	subs := append([]func(Event){}, b.subs...)
	b.mu.Unlock()
	ev := Event{Server: id, Kind: Available, Prev: prev, Time: now}
	for _, fn := range subs {
		fn(ev)
	}
}

// Snapshot returns a copy of every server state, indexed by ServerID. This
// is the solver's "Solve Input" read (Figure 6 step 2).
func (b *Broker) Snapshot() []ServerState {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return append([]ServerState(nil), b.states...)
}

// SnapshotAt is Snapshot plus the version the copy corresponds to. The
// solver keys its cached phase models by that version; feed it back to
// ChangedSince after further mutations to list the servers that differ
// between this snapshot and a later one.
func (b *Broker) SnapshotAt() ([]ServerState, uint64) { return b.SnapshotInto(nil) }

// SnapshotInto is SnapshotAt copied into dst's storage, which it reuses when
// it has room: a caller that snapshots round after round, and keeps no
// earlier snapshot, copies the region without allocating.
func (b *Broker) SnapshotInto(dst []ServerState) ([]ServerState, uint64) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return append(dst[:0], b.states...), b.version
}

// Scan calls visit with every server's record in ascending ID order, in
// place under the read lock: the online path's read, which never copies the
// region. visit filters and reads; it must not retain st, write through it,
// or call into the broker (the lock is held), so a caller that acts on what
// it finds collects the IDs first and acts after Scan returns.
func (b *Broker) Scan(visit func(st *ServerState)) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	for i := range b.states {
		visit(&b.states[i])
	}
}

// ScanReservation is Scan restricted to the servers res owns or borrows
// (Current or LoanedTo is res), filtered inside the loop so that the rest of
// the region costs no call.
func (b *Broker) ScanReservation(res reservation.ID, visit func(st *ServerState)) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	for i := range b.states {
		if st := &b.states[i]; st.Current == res || st.LoanedTo == res {
			visit(st)
		}
	}
}

// ServersIn lists the servers currently bound to res, including loaned-out
// buffer servers (their Current still names the owning reservation).
func (b *Broker) ServersIn(res reservation.ID) []topology.ServerID {
	b.mu.RLock()
	defer b.mu.RUnlock()
	var out []topology.ServerID
	for i := range b.states {
		if b.states[i].Current == res {
			out = append(out, b.states[i].ID)
		}
	}
	return out
}

// CountByReservation reports how many servers are bound to each reservation.
func (b *Broker) CountByReservation() map[reservation.ID]int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make(map[reservation.ID]int)
	for i := range b.states {
		out[b.states[i].Current]++
	}
	return out
}

// UnavailableCount reports the number of servers that are currently
// unavailable, split into planned and unplanned.
func (b *Broker) UnavailableCount() (planned, unplanned int) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	for i := range b.states {
		switch k := b.states[i].Unavail; {
		case k == Available:
		case k.Planned():
			planned++
		default:
			unplanned++
		}
	}
	return planned, unplanned
}

// ExpireUnavailability clears every unavailability event whose end time has
// passed, returning the servers that recovered.
func (b *Broker) ExpireUnavailability(now int64) []topology.ServerID {
	b.mu.Lock()
	var recovered []topology.ServerID
	var events []Event
	for i := range b.states {
		st := &b.states[i]
		if st.Unavail != Available && st.UnavailEnd > 0 && st.UnavailEnd <= now {
			events = append(events, Event{Server: st.ID, Kind: Available, Prev: st.Unavail, Time: now})
			st.Unavail = Available
			st.UnavailEnd = 0
			recovered = append(recovered, st.ID)
		}
	}
	if len(recovered) > 0 {
		b.version++
		for _, id := range recovered {
			b.changed[id] = b.version
		}
	}
	subs := append([]func(Event){}, b.subs...)
	b.mu.Unlock()
	for _, ev := range events {
		for _, fn := range subs {
			fn(ev)
		}
	}
	return recovered
}
