package main

import (
	"fmt"
	"time"

	"ras/internal/broker"
	"ras/internal/hardware"
	"ras/internal/reservation"
	"ras/internal/topology"
)

// shape is a region's geometry and the number of count-based reservations
// that fill 70 % of it.
type shape struct {
	dcs, msbs, racks, servers int // DCs × MSBs per DC × racks per MSB × servers per rack
	reservations              int
}

func (s shape) size() int { return s.dcs * s.msbs * s.racks * s.servers }

func (s shape) String() string {
	return fmt.Sprintf("%dx%dx%dx%d", s.dcs, s.msbs, s.racks, s.servers)
}

// Region shapes. README.md ("Region shape") records why every workload runs
// on one shape with fewer MSBs than BENCH_solver.json's large region.
var (
	shapeBench = shape{3, 4, 6, 24, 8} // 1728 servers, 12 MSBs, 72 racks
	shapeSmoke = shape{2, 2, 3, 4, 3}  // 48 servers, -smoke only
)

// hour is the virtual time between two rounds: RAS re-solves hourly.
const hour = 3600

// workload is one seeded, closed-loop stream of rounds: one client, and the
// next round's events start when the previous Solve has returned.
type workload struct {
	name, why  string
	shape      shape
	backend    string
	partitions int
	buffer     float64       // solver.Config.SharedBufferFraction; -1 turns the shared buffer off
	deadline   time.Duration // the round SLO: a round that takes this long is a failed operation
	rounds     int           // timed rounds of one episode
	containers bool          // fill 60 % of every reservation with containers at set-up
	fresh      bool          // every round runs on a new system: no warm state, no model cache
	warmup     int           // cap on the settle rounds of set-up
	events     func(ep *episode, r int) error
}

var workloads = []*workload{
	{
		name:  "steady_quiet",
		why:   "free-pool failures on a settled system: the model-cache patch path and the warm root LP carry nine rounds in ten, the rack phase's B&B is the rest of the round",
		shape: shapeBench, backend: "mip", buffer: -1, deadline: 10 * time.Second,
		rounds: 200, warmup: 20, events: quietEvents,
	},
	{
		name:  "failure_churn",
		why:   "in-use failures, health ticks, maintenance waves and resizes on the production 2% buffer: every round a structural rebuild and a cold root LP, with real mover and allocator traffic",
		shape: shapeBench, backend: "mip", buffer: 0, deadline: 10 * time.Second,
		rounds: 24, warmup: 20, containers: true, events: churnEvents,
	},
	{
		name:  "cold_solve",
		why:   "every round a fresh system with 1% of servers failed (Fig 7's perturbed full solves): no cache or warm basis, so B&B and node LPs are the round",
		shape: shapeBench, backend: "mip", buffer: 0, deadline: 20 * time.Second,
		rounds: 12, fresh: true, events: coldEvents,
	},
	{
		name:  "pop_cold",
		why:   "cold_solve's rounds through the pop backend with 2 partitions: the only workload that runs partition.Split, serial sub-MIPs, RepairTargets and Evaluate",
		shape: shapeBench, backend: "pop", partitions: 2, buffer: 0, deadline: 20 * time.Second,
		rounds: 12, fresh: true, events: coldEvents,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// classes are cycled over the reservations.
var classes = []hardware.Class{hardware.Web, hardware.Feed1, hardware.Feed2, hardware.DataStore, hardware.FleetAvg}

// rrus is the size of the shape's i-th reservation. Together they fill 70 %
// of the region. Sizes step by 2 around the mean, because equal reservations
// tie in the solver's choice of rack-phase reservations, and it breaks that
// tie differently from run to run (README.md, "Findings").
func (s shape) rrus(i int) float64 {
	mean := s.size() * 7 / 10 / s.reservations
	return float64(mean + 2*i - (s.reservations - 1))
}

func inFreePool(st *broker.ServerState) bool { return st.Current == reservation.Unassigned }

func inUse(st *broker.ServerState) bool { return st.Current >= 0 && st.InUse() }

// failServers fails up to n available servers that pick accepts, drawn
// without replacement, for six virtual hours, and returns them.
func (ep *episode) failServers(n int, pick func(*broker.ServerState) bool) []topology.ServerID {
	s := ep.s
	snap := s.broker.Snapshot()
	var pool, down []topology.ServerID
	for i := range snap {
		if snap[i].Unavail == broker.Available && pick(&snap[i]) {
			pool = append(pool, snap[i].ID)
		}
	}
	for ; n > 0 && len(pool) > 0; n-- {
		j := ep.rng.Intn(len(pool))
		id := pool[j]
		pool[j] = pool[len(pool)-1]
		pool = pool[:len(pool)-1]
		s.broker.SetUnavailable(id, broker.RandomFailure, ep.now, ep.now+6*hour)
		down = append(down, id)
	}
	return down
}

// failAndRevive brings back the servers the previous round failed and fails
// two new ones that pick accepts.
func (ep *episode) failAndRevive(pick func(*broker.ServerState) bool) {
	for _, id := range ep.s.down {
		ep.s.broker.ClearUnavailable(id, ep.now)
	}
	ep.s.down = ep.failServers(2, pick)
}

// quietEvents: last round's failures come back and two free-pool servers fail.
func quietEvents(ep *episode, r int) error {
	ep.failAndRevive(inFreePool)
	return nil
}

// resizeOne grows or shrinks one reservation by 2 RRUs around its set-up size.
func (ep *episode) resizeOne() error {
	i := ep.rng.Intn(len(ep.s.ids))
	id := ep.s.ids[i]
	rsv, err := ep.s.store.Get(id)
	if err != nil {
		return err
	}
	delta := 2.0
	if rsv.RRUs > ep.w.shape.rrus(i) {
		delta = -2
	}
	return ep.s.store.Resize(id, rsv.RRUs+delta)
}

// churnEvents: the health service expires six-hour-old failures and injects
// about one random failure, two in-use servers fail (the mover replaces them
// from the shared buffer, the allocator reschedules their containers), every
// sixth round a maintenance wave starts on the next MSB, and every fourth
// round one reservation is resized.
func churnEvents(ep *episode, r int) error {
	s := ep.s
	done := ep.tr.span("health.tick")
	st := s.health.Tick(ep.now)
	done()
	ep.tally.add("health.failures", float64(st.RandomFailures))
	ep.failServers(2, inUse) // Tick brings them back once their six hours are up
	if r%6 == 5 {
		s.health.StartMaintenanceWave(ep.now)
	}
	if r%4 == 3 {
		return ep.resizeOne()
	}
	return nil
}

// coldEvents fails 1 % of the fresh system's servers at random.
func coldEvents(ep *episode, r int) error {
	ep.failServers(max(1, ep.w.shape.size()/100), func(*broker.ServerState) bool { return true })
	return nil
}
