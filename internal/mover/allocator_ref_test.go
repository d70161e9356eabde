package mover

import (
	"fmt"
	"sort"
	"sync"

	"ras/internal/allocator"
	"ras/internal/broker"
	"ras/internal/reservation"
	"ras/internal/topology"
)

// This file keeps the container allocator as it was before Place read the
// broker in place: a test-only reference that copies every server state per
// placement and counts a server's containers by scanning every container of
// the region (countOn). It differs from that allocator only in names
// (refAllocator, newRefAllocator) and in borrowing allocator's exported
// types and errors; the methods TestAllocatorMatchesReference does not drive
// are left out. It lives with the mover's reference (mover_ref_test.go)
// because the differential test runs both under the mover's failure
// handling, and a test file reaches only its own package.

// refAllocator places containers within reservations.
type refAllocator struct {
	mu     sync.Mutex
	broker *broker.Broker
	// capacity per server in allocation units (stacking limit).
	unitsPerServer int
	used           map[topology.ServerID]int
	containers     map[allocator.ContainerID]*allocator.Container
	nextID         allocator.ContainerID
	// placements counts successful placements (metrics).
	placements int
	evictions  int
}

func newRefAllocator(b *broker.Broker, unitsPerServer int) *refAllocator {
	if unitsPerServer <= 0 {
		unitsPerServer = 8
	}
	return &refAllocator{
		broker:         b,
		unitsPerServer: unitsPerServer,
		used:           make(map[topology.ServerID]int),
		containers:     make(map[allocator.ContainerID]*allocator.Container),
	}
}

// Place starts one container of the given size in the reservation, choosing
// the eligible server best-fit (most-loaded that still fits) to preserve
// large holes for future big containers. Buffer servers loaned to elastic
// reservations are used only when res is the elastic borrower.
func (a *refAllocator) Place(res reservation.ID, job string, units int) (allocator.ContainerID, error) {
	return a.place(res, job, units, -1)
}

// place implements Place, optionally excluding one server (used while
// draining it for a move or failure).
func (a *refAllocator) place(res reservation.ID, job string, units int, exclude topology.ServerID) (allocator.ContainerID, error) {
	if units <= 0 || units > a.unitsPerServer {
		return 0, fmt.Errorf("allocator: container size %d outside (0,%d]", units, a.unitsPerServer)
	}
	a.mu.Lock()
	defer a.mu.Unlock()

	best := topology.ServerID(-1)
	bestUsed := -1
	consider := func(id topology.ServerID, st *broker.ServerState) {
		if st.Unavail != broker.Available {
			return
		}
		u := a.used[id]
		if u+units > a.unitsPerServer {
			return
		}
		if u > bestUsed {
			bestUsed, best = u, id
		}
	}
	snap := a.broker.Snapshot()
	for i := range snap {
		st := &snap[i]
		if st.ID == exclude {
			continue
		}
		owned := st.Current == res && st.LoanedTo == reservation.Unassigned
		borrowed := st.LoanedTo == res
		if owned || borrowed {
			consider(st.ID, st)
		}
	}
	if best < 0 {
		return 0, allocator.ErrNoCapacity
	}
	a.nextID++
	c := &allocator.Container{ID: a.nextID, Job: job, Res: res, Server: best, Units: units}
	a.containers[c.ID] = c
	a.used[best] += units
	a.placements++
	a.broker.SetContainers(best, a.countOn(best))
	return c.ID, nil
}

// countOn counts containers on a server (mu held).
func (a *refAllocator) countOn(id topology.ServerID) int {
	n := 0
	for _, c := range a.containers {
		if c.Server == id {
			n++
		}
	}
	return n
}

// Stop removes a container.
func (a *refAllocator) Stop(id allocator.ContainerID) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	c, ok := a.containers[id]
	if !ok {
		return allocator.ErrNotFound
	}
	delete(a.containers, id)
	a.used[c.Server] -= c.Units
	if a.used[c.Server] <= 0 {
		delete(a.used, c.Server)
	}
	a.broker.SetContainers(c.Server, a.countOn(c.Server))
	return nil
}

// Get returns a copy of the container.
func (a *refAllocator) Get(id allocator.ContainerID) (allocator.Container, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	c, ok := a.containers[id]
	if !ok {
		return allocator.Container{}, allocator.ErrNotFound
	}
	return *c, nil
}

// Evict removes every container from the server (preemption before a server
// move, or server loss) and returns the evicted containers so the caller can
// reschedule them.
func (a *refAllocator) Evict(id topology.ServerID) []allocator.Container {
	a.mu.Lock()
	var out []allocator.Container
	for _, c := range a.containers {
		if c.Server == id {
			out = append(out, *c)
		}
	}
	for _, c := range out {
		delete(a.containers, c.ID)
		a.evictions++
	}
	delete(a.used, id)
	a.mu.Unlock()
	a.broker.SetContainers(id, 0)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Reschedule evicts the server and replaces each of its containers inside
// its own reservation. It returns the containers that could not be
// replaced (capacity crunch).
func (a *refAllocator) Reschedule(id topology.ServerID) (failed []allocator.Container) {
	for _, c := range a.Evict(id) {
		if _, err := a.place(c.Res, c.Job, c.Units, id); err != nil {
			failed = append(failed, c)
		}
	}
	return failed
}

// Stats reports placement counters.
func (a *refAllocator) Stats() (placements, evictions, running int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.placements, a.evictions, len(a.containers)
}

// FreeUnits reports the spare allocation units of a reservation across its
// available servers.
func (a *refAllocator) FreeUnits(res reservation.ID) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	total := 0
	snap := a.broker.Snapshot()
	for i := range snap {
		st := &snap[i]
		if st.Current != res || st.LoanedTo != reservation.Unassigned || st.Unavail != broker.Available {
			continue
		}
		total += a.unitsPerServer - a.used[st.ID]
	}
	return total
}
