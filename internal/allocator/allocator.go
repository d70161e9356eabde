// Package allocator implements the second level of the two-level
// architecture: the Twine Allocator & Scheduler that places containers on
// servers *within* a reservation (paper §3.1–3.2). Because the async solver
// already materialized the reservation's full capacity, container placement
// never waits on server acquisition — the allocator only filters and packs
// servers that are already in the reservation, which is what gives the
// "swift response times of seconds on the critical path".
//
// The allocator supports stacking: containers from different jobs share a
// server subject to its capacity in allocation units.
package allocator

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"ras/internal/broker"
	"ras/internal/reservation"
	"ras/internal/topology"
)

// ContainerID identifies a container.
type ContainerID int64

// Container is one placed workload unit.
type Container struct {
	ID     ContainerID
	Job    string
	Res    reservation.ID
	Server topology.ServerID
	Units  int // allocation units consumed on the server
}

// Errors returned by the allocator.
var (
	// ErrNoCapacity means no server in the reservation can fit the request.
	ErrNoCapacity = errors.New("allocator: no server with sufficient free capacity in reservation")
	// ErrNotFound means the container does not exist.
	ErrNotFound = errors.New("allocator: container not found")
)

// Allocator places containers within reservations. One Allocator instance
// can serve many reservations; each placement is scoped to one reservation,
// which is what lets multiple allocators run independently in production.
type Allocator struct {
	mu     sync.Mutex
	broker *broker.Broker
	// capacity per server in allocation units (stacking limit).
	unitsPerServer int
	// used and count are indexed by ServerID: the allocation units and the
	// number of containers on each server of the region.
	used       []int
	count      []int
	containers map[ContainerID]*Container
	nextID     ContainerID
	// placements counts successful placements (metrics).
	placements int
	evictions  int
}

// New creates an allocator over the broker. unitsPerServer is the stacking
// capacity of every server in allocation units (a simplification of Twine's
// multi-dimensional resources; 8 is a typical stacking degree).
func New(b *broker.Broker, unitsPerServer int) *Allocator {
	if unitsPerServer <= 0 {
		unitsPerServer = 8
	}
	n := len(b.Region().Servers)
	return &Allocator{
		broker:         b,
		unitsPerServer: unitsPerServer,
		used:           make([]int, n),
		count:          make([]int, n),
		containers:     make(map[ContainerID]*Container),
	}
}

// Place starts one container of the given size in the reservation, choosing
// the eligible server best-fit (most-loaded that still fits) to preserve
// large holes for future big containers. Buffer servers loaned to elastic
// reservations are used only when res is the elastic borrower.
func (a *Allocator) Place(res reservation.ID, job string, units int) (ContainerID, error) {
	return a.place(res, job, units, -1)
}

// place implements Place, optionally excluding one server (used while
// draining it for a move or failure).
func (a *Allocator) place(res reservation.ID, job string, units int, exclude topology.ServerID) (ContainerID, error) {
	if units <= 0 || units > a.unitsPerServer {
		return 0, fmt.Errorf("allocator: container size %d outside (0,%d]", units, a.unitsPerServer)
	}
	a.mu.Lock()
	defer a.mu.Unlock()

	// The reservation's placeable servers are the ones it owns and has not
	// loaned out, plus the ones it borrows; they are read in place, in
	// ascending ID order, so the first most-loaded one wins ties.
	best := topology.ServerID(-1)
	bestUsed := -1
	a.broker.ScanReservation(res, func(st *broker.ServerState) {
		placeable := st.Current == res && st.LoanedTo == reservation.Unassigned || st.LoanedTo == res
		if !placeable || st.ID == exclude || st.Unavail != broker.Available {
			return
		}
		if u := a.used[st.ID]; u+units <= a.unitsPerServer && u > bestUsed {
			bestUsed, best = u, st.ID
		}
	})
	if best < 0 {
		return 0, ErrNoCapacity
	}
	a.nextID++
	c := &Container{ID: a.nextID, Job: job, Res: res, Server: best, Units: units}
	a.containers[c.ID] = c
	a.used[best] += units
	a.count[best]++
	a.placements++
	a.broker.SetContainers(best, a.count[best])
	return c.ID, nil
}

// Stop removes a container.
func (a *Allocator) Stop(id ContainerID) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	c, ok := a.containers[id]
	if !ok {
		return ErrNotFound
	}
	delete(a.containers, id)
	a.used[c.Server] -= c.Units
	a.count[c.Server]--
	a.broker.SetContainers(c.Server, a.count[c.Server])
	return nil
}

// Get returns a copy of the container.
func (a *Allocator) Get(id ContainerID) (Container, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	c, ok := a.containers[id]
	if !ok {
		return Container{}, ErrNotFound
	}
	return *c, nil
}

// ContainersOn lists containers running on a server.
func (a *Allocator) ContainersOn(id topology.ServerID) []Container {
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []Container
	for _, c := range a.containers {
		if c.Server == id {
			out = append(out, *c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ContainersIn lists containers of a reservation.
func (a *Allocator) ContainersIn(res reservation.ID) []Container {
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []Container
	for _, c := range a.containers {
		if c.Res == res {
			out = append(out, *c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Evict removes every container from the server (preemption before a server
// move, or server loss) and returns the evicted containers so the caller can
// reschedule them.
func (a *Allocator) Evict(id topology.ServerID) []Container {
	a.mu.Lock()
	var out []Container
	for _, c := range a.containers {
		if c.Server == id {
			out = append(out, *c)
		}
	}
	for _, c := range out {
		delete(a.containers, c.ID)
		a.evictions++
	}
	a.used[id], a.count[id] = 0, 0
	a.mu.Unlock()
	a.broker.SetContainers(id, 0)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Reschedule evicts the server and replaces each of its containers inside
// its own reservation. It returns the containers that could not be
// replaced (capacity crunch).
func (a *Allocator) Reschedule(id topology.ServerID) (failed []Container) {
	for _, c := range a.Evict(id) {
		if _, err := a.place(c.Res, c.Job, c.Units, id); err != nil {
			failed = append(failed, c)
		}
	}
	return failed
}

// Stats reports placement counters.
func (a *Allocator) Stats() (placements, evictions, running int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.placements, a.evictions, len(a.containers)
}

// FreeUnits reports the spare allocation units of a reservation across its
// available servers.
func (a *Allocator) FreeUnits(res reservation.ID) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	total := 0
	a.broker.ScanReservation(res, func(st *broker.ServerState) {
		if st.Current == res && st.LoanedTo == reservation.Unassigned && st.Unavail == broker.Available {
			total += a.unitsPerServer - a.used[st.ID]
		}
	})
	return total
}
