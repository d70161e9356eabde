// Package ras is a from-scratch reproduction of RAS, Facebook's
// region-wide datacenter resource allocator (Newell et al., SOSP 2021).
//
// RAS provides guaranteed capacity through a two-level architecture:
//
//  1. The async solver (internal/solver) continuously optimizes
//     server-to-reservation assignments for a whole region by solving a
//     mixed-integer program — accounting for random and correlated
//     failures, planned maintenance, heterogeneous hardware (via relative
//     resource units), network affinity, and fault-domain spread — off the
//     critical path, and the online mover (internal/mover) executes its
//     decisions and handles sub-minute failure replacement.
//  2. A container allocator (internal/allocator) places containers on
//     servers within each reservation in real time.
//
// This package is the public façade: it wires the substrates into a System
// and re-exports the domain types a user needs. See the examples directory
// for runnable scenarios and DESIGN.md for the system inventory.
package ras

import (
	"context"

	"ras/internal/allocator"
	"ras/internal/backend"
	"ras/internal/broker"
	"ras/internal/hardware"
	"ras/internal/health"
	"ras/internal/mover"
	"ras/internal/reservation"
	"ras/internal/sim"
	"ras/internal/solver"
	"ras/internal/topology"
)

// Re-exported domain types. The internal packages remain the source of
// truth; these aliases form the public API surface.
type (
	// Region is the physical inventory of datacenters, MSBs, racks, and
	// servers RAS allocates over.
	Region = topology.Region
	// RegionSpec parameterizes the synthetic region generator.
	RegionSpec = topology.GenSpec
	// ServerID identifies a server within a region.
	ServerID = topology.ServerID
	// Reservation is a logical cluster with guaranteed capacity.
	Reservation = reservation.Reservation
	// ReservationID identifies a reservation.
	ReservationID = reservation.ID
	// Policy captures a reservation's placement requirements.
	Policy = reservation.Policy
	// Class is a service class with distinct hardware affinity.
	Class = hardware.Class
	// SolverConfig tunes the async solver (the MIP backend).
	SolverConfig = solver.Config
	// SolveResult is the backend-independent outcome of one
	// continuous-optimization round. Backend detail (phase stats, repair
	// passes, partitions) is carried in its MIP / LocalSearch / POP fields.
	SolveResult = backend.Result
	// SolveStatus classifies a solve outcome.
	SolveStatus = backend.Status
	// ContainerID identifies a container placed by the allocator.
	ContainerID = allocator.ContainerID
	// HealthConfig sets failure-injection rates.
	HealthConfig = health.Config
	// Clock is virtual time in seconds since the simulation epoch.
	Clock = sim.Time
)

// Re-exported service classes.
const (
	DataStore = hardware.DataStore
	Feed1     = hardware.Feed1
	Feed2     = hardware.Feed2
	Web       = hardware.Web
	FleetAvg  = hardware.FleetAvg
	BatchML   = hardware.BatchML
)

// Special reservation IDs.
const (
	// Unassigned marks a server in the regional free pool.
	Unassigned = reservation.Unassigned
	// SharedBuffer marks a server in the shared random-failure buffer.
	SharedBuffer = reservation.SharedBuffer
)

// Solve statuses, re-exported from the backend layer.
const (
	SolveOptimal    = backend.StatusOptimal
	SolveFeasible   = backend.StatusFeasible
	SolveCancelled  = backend.StatusCancelled
	SolveNoSolution = backend.StatusNoSolution
)

// Backends lists the solver backends selectable via Options.Backend or
// System.SolveWith: "localsearch", "mip" and "pop".
func Backends() []string { return backend.Names() }

// NewRegion generates a synthetic region from the spec.
func NewRegion(spec RegionSpec) (*Region, error) { return topology.Generate(spec) }

// DefaultPolicy returns the placement policy used when none is specified.
func DefaultPolicy() Policy { return reservation.DefaultPolicy() }

// Options configures a System.
type Options struct {
	// Backend names the optimization backend Solve uses: "mip" (default),
	// "localsearch" or "pop".
	Backend string
	// Solver tunes the async solver (MIP backend) and sets the objective
	// every backend scores with; the zero value selects defaults.
	Solver SolverConfig
	// Health sets failure-injection rates; the zero value selects
	// health.DefaultConfig().
	Health *HealthConfig
	// StackingUnits is the per-server container stacking capacity. Zero
	// means 8.
	StackingUnits int
	// Workers caps each solve round's parallelism (branch-and-bound
	// workers; local search is serial). Zero means runtime.NumCPU();
	// negative or 1 forces the serial engines. See backend.Options.Workers.
	Workers int
	// Partitions is the pop backend's sub-region count k. Zero means the
	// backend default; other backends ignore it. See
	// backend.Options.Partitions.
	Partitions int
}

// System is a fully wired two-level RAS deployment over one region: broker,
// health-check service, async solver, online mover, and container
// allocator.
type System struct {
	region *topology.Region
	broker *broker.Broker
	store  *reservation.Store
	health *health.Service
	mover  *mover.Mover
	alloc  *allocator.Allocator

	opts      Options
	lastSolve *SolveResult
	// snap is the broker snapshot each SolveWith copies into. Nothing a solve
	// returns or keeps — the SolveResult, the warm state — refers to the
	// round's States, so the next round may overwrite it.
	snap []broker.ServerState
	// warm is the cross-round warm-start state the last successful solve
	// exported (backend.Result.Warm): the MIP's cached phase models and root
	// bases (per partition under pop) and/or the local-search assignment.
	// Each SolveWith passes it back in so consecutive rounds amortize solver
	// work the way the paper's continuous loop does: a cached model is
	// patched to the round's input, and one whose structure drifted is
	// rebuilt inside the solver, so the round's outcome is never at risk.
	warm *backend.WarmState
}

// NewSystem wires a System over the region.
func NewSystem(region *Region, opts Options) *System {
	b := broker.New(region)
	store := reservation.NewStore()
	hcfg := health.DefaultConfig()
	if opts.Health != nil {
		hcfg = *opts.Health
	}
	al := allocator.New(b, opts.StackingUnits)
	mv := mover.New(b, store, al)
	s := &System{
		region: region,
		broker: b,
		store:  store,
		health: health.New(b, hcfg),
		mover:  mv,
		alloc:  al,
		opts:   opts,
	}
	// The online mover subscribes to unavailability events (Figure 6
	// step 7) and provides replacement servers within a minute.
	b.Subscribe(func(ev broker.Event) { mv.HandleFailure(ev, ev.Time) })
	return s
}

// Accessors for the wired components (read-mostly; the components' own
// methods are safe for concurrent use).

// Region returns the physical topology.
func (s *System) Region() *Region { return s.region }

// Broker returns the resource broker.
func (s *System) Broker() *broker.Broker { return s.broker }

// Reservations returns the reservation store (the Capacity Portal state).
func (s *System) Reservations() *reservation.Store { return s.store }

// Health returns the health-check service / failure injector.
func (s *System) Health() *health.Service { return s.health }

// Mover returns the online mover.
func (s *System) Mover() *mover.Mover { return s.mover }

// Allocator returns the container allocator.
func (s *System) Allocator() *allocator.Allocator { return s.alloc }

// CreateReservation registers a capacity request and returns its ID. The
// capacity materializes at the next Solve.
func (s *System) CreateReservation(r Reservation) (ReservationID, error) { return s.store.Create(r) }

// ResizeReservation changes a reservation's requested RRUs.
func (s *System) ResizeReservation(id ReservationID, rrus float64) error {
	return s.store.Resize(id, rrus)
}

// DeleteReservation removes a reservation; its servers return to the free
// pool at the next Solve.
func (s *System) DeleteReservation(id ReservationID) error { return s.store.Delete(id) }

// Solve runs one continuous-optimization round (Figure 6 steps 2–5) with
// the backend selected by Options.Backend: it snapshots the broker and
// reservation store, solves, persists the target bindings, and has the
// online mover execute them. ctx bounds the whole round; cancelling it
// aborts the running solve promptly and the round completes with the best
// incumbent assignment (Status SolveCancelled).
func (s *System) Solve(ctx context.Context, now Clock) (*SolveResult, error) {
	return s.SolveWith(ctx, now, s.opts.Backend)
}

// SolveWith is Solve with an explicit backend name ("mip", "localsearch" or
// "pop"; empty selects the default), letting one System
// mix backends across rounds — e.g. hourly MIP rounds with near-realtime
// local-search touch-ups in between (paper §6).
func (s *System) SolveWith(ctx context.Context, now Clock, backendName string) (*SolveResult, error) {
	be, err := backend.New(backendName, backend.Config{Solver: s.opts.Solver})
	if err != nil {
		return nil, err
	}
	states, _ := s.broker.SnapshotInto(s.snap)
	s.snap = states
	in := solver.Input{Region: s.region, Reservations: s.store.All(), States: states}
	res, err := be.Solve(ctx, in, backend.Options{
		Workers: s.opts.Workers, Partitions: s.opts.Partitions, Warm: s.warm,
	})
	if err != nil {
		return nil, err
	}
	if res.Status != SolveNoSolution {
		// A cancelled round still persists: its incumbent can never regress
		// below the assignment the round started from (§3.5.1 softening).
		s.applyTargets(states, res.Targets, now)
	}
	s.lastSolve = res
	s.warm = res.Warm
	return res, nil
}

// applyTargets persists solved target bindings to the broker and has the
// online mover execute them (Figure 6 steps 4–5) — the single persistence
// path shared by every backend. Only the targets that differ from the
// round's input snapshot are written, still in one critical section. That
// diff is the broker's whole change because the solver is the only writer of
// Target in a System: the mover and emergency grants write Current alone.
func (s *System) applyTargets(input []broker.ServerState, tgts []reservation.ID, now Clock) {
	changed := make(map[topology.ServerID]reservation.ID)
	for i, tgt := range tgts {
		if tgt != input[i].Target {
			changed[topology.ServerID(i)] = tgt
		}
	}
	s.broker.SetTargets(changed)
	s.mover.ApplyTargets(now)
}

// LastSolve returns the most recent solve result (nil before the first).
func (s *System) LastSolve() *SolveResult { return s.lastSolve }

// PlaceContainer starts one container of the given size in the reservation.
func (s *System) PlaceContainer(res ReservationID, job string, units int) (ContainerID, error) {
	return s.alloc.Place(res, job, units)
}

// StopContainer removes a container.
func (s *System) StopContainer(id ContainerID) error { return s.alloc.Stop(id) }

// LoanBuffersToElastic hands idle shared-buffer servers to the registered
// elastic reservations (§3.4) and returns the number of loans made.
func (s *System) LoanBuffersToElastic() int {
	var elastic []reservation.ID
	for _, r := range s.store.All() {
		if r.Elastic {
			elastic = append(elastic, r.ID)
		}
	}
	return s.mover.LoanIdleBuffers(elastic)
}

// GuaranteedRRUs reports how many RRUs of capacity the reservation's
// current servers deliver, and how many survive the loss of its most-loaded
// MSB (the capacity guarantee of expression 6).
func (s *System) GuaranteedRRUs(id ReservationID) (total, afterWorstMSB float64, err error) {
	r, err := s.store.Get(id)
	if err != nil {
		return 0, 0, err
	}
	perMSB := make([]float64, s.region.NumMSBs)
	for _, sid := range s.broker.ServersIn(id) {
		srv := s.region.Server(sid)
		v := r.Value(s.region.Catalog, srv.Type)
		if v <= 0 {
			continue
		}
		total += v
		perMSB[srv.MSB] += v
	}
	worst := 0.0
	for _, v := range perMSB {
		if v > worst {
			worst = v
		}
	}
	return total, total - worst, nil
}

// NewEngine returns a fresh discrete-event simulation engine for driving a
// System through virtual time.
func NewEngine() *sim.Engine { return sim.NewEngine() }
