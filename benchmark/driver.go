package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"ras"
	"ras/internal/allocator"
	"ras/internal/backend"
	"ras/internal/broker"
	"ras/internal/health"
	"ras/internal/mover"
	"ras/internal/partition"
	"ras/internal/reservation"
	"ras/internal/solver"
	"ras/internal/topology"
	wl "ras/internal/workload"
)

// deploymentSeed fixes the hardware mix and the container sizes: region,
// reservations and containers are the deployment under test, and -seed draws
// only the events that happen to it. Set-up is therefore the same work for
// every seed.
const deploymentSeed = 9

// maxNodes and phaseLimit are the fixed solver settings: every stop is a node
// or iteration count, never the wall clock, so counts do not depend on the
// machine.
const (
	maxNodes   = 100
	phaseLimit = 120 * time.Second
)

// setUpDeadline bounds a set-up round; it is not an SLO.
const setUpDeadline = 10 * time.Minute

// probeEvery is how often the traced pass times the set-up-only, evaluate
// and split probes on a round's own input.
const probeEvery = 10

func (w *workload) solverConfig() solver.Config {
	return solver.Config{
		MaxNodes: maxNodes, Phase1TimeLimit: phaseLimit, Phase2TimeLimit: phaseLimit,
		SharedBufferFraction: w.buffer,
	}
}

// healthConfig makes a Tick inject about one random failure with a six-hour
// repair and nothing else; ToR and MSB failures come from the event scripts
// so that every seed sees the same number of them.
func (w *workload) healthConfig(seed int64) health.Config {
	c := health.DefaultConfig()
	c.RandomFailureRate = 1 / float64(w.shape.size())
	c.RandomRepairHours = 6
	c.ToRFailureRate = 0
	c.MSBFailureRate = 0
	c.Seed = seed
	return c
}

// system is one wired RAS deployment. The untraced pass wires it through
// ras.NewSystem and solves through System.Solve; the traced pass wires the
// same components itself and re-issues SolveWith's sequence, for which it
// keeps SolveWith's cross-round state.
type system struct {
	region *topology.Region
	broker *broker.Broker
	store  *reservation.Store
	health *health.Service
	alloc  *allocator.Allocator
	mover  *mover.Mover

	sys *ras.System // untraced pass only

	cfg        backend.Config
	warm       *backend.WarmState
	lastStates uint64
	lastStore  int
	haveDelta  bool
	lastIn     solver.Input // the input of the last traced solve, for the probes

	ids  []reservation.ID    // the shape's reservations
	down []topology.ServerID // servers the previous round's events failed
}

// episode is one set-up of a workload followed by its fixed number of timed
// rounds. Its seed, the episode's draw from the run's -seed, fixes everything
// that happens in it; a run goes through episodes until its time is up and
// reports medians over them. An untraced episode (tr == nil) gives the
// end-to-end numbers, a traced one the per-layer ones.
type episode struct {
	w      *workload
	seed   int64
	tr     *tracer
	rng    *rand.Rand
	region *topology.Region
	s      *system
	now    int64 // virtual seconds

	setup  time.Duration
	rounds []round
	tally  tally
}

// round is what both passes keep of one timed round.
type round struct {
	events, solve time.Duration
	alloc         uint64 // bytes allocated inside Solve
	sum           uint64 // checksum of Targets
	objective     float64
	failed        string // why the round is a failed operation; "" when it is not
}

// runEpisode sets the workload up and runs its rounds.
func runEpisode(w *workload, seed int64, tr *tracer) (*episode, error) {
	ep := &episode{w: w, seed: seed, tr: tr, rng: rand.New(rand.NewSource(seed)), tally: newTally()}
	if err := ep.setUp(); err != nil {
		return nil, err
	}
	return ep, ep.runRounds()
}

// newSystem wires a system over the pass's region and creates the shape's
// reservations.
func (ep *episode) newSystem() (*system, error) {
	w := ep.w
	cfg := backend.Config{Solver: w.solverConfig()}
	hcfg := w.healthConfig(ep.seed)
	s := &system{region: ep.region, cfg: cfg}
	if ep.tr == nil {
		s.sys = ras.NewSystem(ep.region, ras.Options{
			Backend: w.backend, Solver: cfg.Solver, Health: &hcfg, Workers: 1, Partitions: w.partitions,
		})
		s.broker, s.store, s.health = s.sys.Broker(), s.sys.Reservations(), s.sys.Health()
		s.alloc, s.mover = s.sys.Allocator(), s.sys.Mover()
	} else {
		s.broker = broker.New(ep.region)
		s.store = reservation.NewStore()
		s.health = health.New(s.broker, hcfg)
		s.alloc = allocator.New(s.broker, 0)
		s.mover = mover.New(s.broker, s.store, s.alloc)
		s.broker.Subscribe(func(ev broker.Event) {
			done := ep.tr.span("mover.handle_failure")
			s.mover.HandleFailure(ev, ev.Time)
			done()
		})
	}
	for i := 0; i < w.shape.reservations; i++ {
		id, err := s.store.Create(reservation.Reservation{
			Name: fmt.Sprintf("svc%d", i), Class: classes[i%len(classes)], RRUs: w.shape.rrus(i),
			CountBased: true, Policy: reservation.DefaultPolicy(),
		})
		if err != nil {
			return nil, err
		}
		s.ids = append(s.ids, id)
	}
	return s, nil
}

// setUp builds everything the timed rounds start from: the region, and
// unless the workload solves on fresh systems, a wired system whose capacity
// has materialized, its containers, and settle rounds until two in a row
// move nothing. A workload on fresh systems runs one untimed round instead.
func (ep *episode) setUp() error {
	start := time.Now()
	w := ep.w
	done := ep.tr.span("topology.generate")
	region, err := topology.Generate(topology.GenSpec{
		Name: w.name, DCs: w.shape.dcs, MSBsPerDC: w.shape.msbs, RacksPerMSB: w.shape.racks,
		ServersPerRack: w.shape.servers, Seed: deploymentSeed,
	})
	done()
	if err != nil {
		return err
	}
	ep.region = region
	if w.fresh {
		// One untimed round, so that the timed ones do not pay for the first
		// solve's heap growth.
		if ep.s, err = ep.newSystem(); err != nil {
			return err
		}
		if err := w.events(ep, 0); err != nil {
			return err
		}
		if _, err := ep.solveAndVerify(setUpDeadline); err != nil {
			return fmt.Errorf("set-up round: %w", err)
		}
	} else {
		if ep.s, err = ep.newSystem(); err != nil {
			return err
		}
		quiet := 0
		for i := 0; i <= w.warmup && quiet < 2; i++ {
			out, err := ep.solveAndVerify(setUpDeadline)
			if err != nil {
				return fmt.Errorf("set-up round %d: %w", i, err)
			}
			if i == 0 && w.containers {
				ep.placeContainers()
			}
			if out.res.Moves.InUse+out.res.Moves.Unused == 0 {
				quiet++
			} else {
				quiet = 0
			}
		}
	}
	ep.setup = time.Since(start)
	return nil
}

// placeContainers fills 60 % of every reservation's stacking units.
func (ep *episode) placeContainers() {
	const unitsPerServer = 8
	gen := wl.NewContainerGen(unitsPerServer, deploymentSeed)
	for _, id := range ep.s.ids {
		want := len(ep.s.broker.ServersIn(id)) * unitsPerServer * 6 / 10
		for used := 0; used < want; {
			units := gen.Next()
			done := ep.tr.span("allocator.place")
			_, err := ep.s.alloc.Place(id, "job", units)
			done()
			if err != nil {
				break // no server of the reservation has a hole this large left
			}
			used += units
		}
	}
}

// solved is one round's outcome: the result, how long Solve took and how
// much it allocated, and the reservation whose capacity the output does not
// cover, if any. A shortfall fails the round but is an allowed (softened)
// outcome, not an incorrect one.
type solved struct {
	res       *backend.Result
	took      time.Duration
	alloc     uint64
	shortfall string
}

// solveAndVerify advances the clock one hour, solves one round under the
// deadline and checks the output against the snapshot the round started
// from. The error is a solver error or an incorrect output.
func (ep *episode) solveAndVerify(deadline time.Duration) (solved, error) {
	ep.now += hour
	before := ep.s.broker.Snapshot()
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	var out solved
	var err error
	if ep.tr == nil {
		out.res, err = ep.s.sys.Solve(ctx, ep.now)
	} else {
		out.res, err = ep.tracedSolve(ctx)
	}
	out.took = time.Since(start)
	if err != nil {
		return out, err
	}
	runtime.ReadMemStats(&m1)
	out.alloc = m1.TotalAlloc - m0.TotalAlloc
	out.shortfall, err = verify(ep.region, ep.s.store.All(), before, out.res.Targets)
	return out, err
}

// runRounds runs the workload's timed rounds. A solver error or an incorrect
// output ends the episode with an error; everything else that goes wrong in
// a round makes it a failed operation.
func (ep *episode) runRounds() error {
	ep.tally = newTally() // drop what set-up counted
	for r := 0; r < ep.w.rounds; r++ {
		if ep.tr != nil {
			ep.tr.round = r
		}
		t0 := time.Now()
		if ep.w.fresh {
			var err error
			if ep.s, err = ep.newSystem(); err != nil {
				return err
			}
		}
		moverBefore := ep.s.mover.Stats()
		_, evictionsBefore, _ := ep.s.alloc.Stats()
		if err := ep.w.events(ep, r); err != nil {
			return fmt.Errorf("round %d events: %w", r, err)
		}
		events := time.Since(t0)
		moverAtSolve := ep.s.mover.Stats()

		out, err := ep.solveAndVerify(ep.w.deadline)
		if err != nil {
			return fmt.Errorf("round %d: %w", r, err)
		}
		res := out.res
		rd := round{
			events: events, solve: out.took, alloc: out.alloc, sum: checksum(res.Targets), objective: res.Objective,
		}
		switch {
		case res.Status == backend.StatusNoSolution || res.Status == backend.StatusCancelled:
			rd.failed = res.Status.String()
		case out.took >= ep.w.deadline:
			rd.failed = "deadline"
		case out.shortfall != "":
			rd.failed = "shortfall: " + out.shortfall
		}
		ep.rounds = append(ep.rounds, rd)
		if ep.tr != nil {
			ep.tallyRound(res, &rd, moverBefore, moverAtSolve, evictionsBefore)
			if r%probeEvery == 0 {
				ep.probe(res.Targets)
			}
		}
	}
	return nil
}

// tracedSolve is ras.System.SolveWith issued call by call from the layers'
// public functions, one span per call.
func (ep *episode) tracedSolve(ctx context.Context) (*backend.Result, error) {
	s, tr := ep.s, ep.tr
	defer tr.span("round.solve")()
	be, err := backend.New(ep.w.backend, s.cfg)
	if err != nil {
		return nil, err
	}
	storeVersion := s.store.Version()
	done := tr.span("broker.snapshot")
	states, statesVersion := s.broker.SnapshotAt()
	done()
	done = tr.span("reservation.all")
	in := solver.Input{Region: s.region, Reservations: s.store.All(), States: states, StatesVersion: statesVersion}
	done()
	if s.haveDelta {
		done = tr.span("broker.changed_since")
		changed, ok := s.broker.ChangedSince(s.lastStates)
		done()
		if ok {
			in.Delta = &solver.Delta{Since: s.lastStates, Servers: changed, Reservations: s.store.ChangesSince(s.lastStore)}
			ep.tally.add("broker.changed_servers", float64(len(changed)))
			ep.tally.add("reservation.changes", float64(len(in.Delta.Reservations)))
		} else {
			ep.tally.add("broker.journal_gaps", 1)
		}
	}
	done = tr.span("backend.solve")
	res, err := be.Solve(ctx, in, backend.Options{Workers: 1, Partitions: ep.w.partitions, Warm: s.warm})
	if err == nil {
		// The backend reports its stages as durations; lay them end to end
		// under the solve span so the trace shows where the solve went.
		var at time.Duration
		for _, ph := range phasesOf(res) {
			for _, st := range ph.stages() {
				tr.derived(st.name, at, st.d)
				at += st.d
			}
		}
	}
	done()
	if err != nil {
		return nil, err
	}
	if res.Status != backend.StatusNoSolution {
		targets := make(map[topology.ServerID]reservation.ID, len(res.Targets))
		for i, tgt := range res.Targets {
			targets[topology.ServerID(i)] = tgt
		}
		done = tr.span("broker.set_targets")
		s.broker.SetTargets(targets)
		done()
		done = tr.span("mover.apply_targets")
		s.mover.ApplyTargets(ep.now)
		done()
	}
	s.warm = res.Warm
	s.lastStates, s.lastStore, s.haveDelta = statesVersion, storeVersion, true
	s.lastIn = in
	return res, nil
}

// probe times, on the last round's own input, three pure functions the round
// does not time by itself. It runs after the round's spans have closed.
func (ep *episode) probe(targets []reservation.ID) {
	cfg, in := ep.s.cfg.Solver, ep.s.lastIn
	in.Delta, in.StatesVersion = nil, 0 // a cold, uncached build

	setupOnly := cfg
	setupOnly.SetupOnly = true
	t := time.Now()
	_, err := solver.Solve(context.Background(), in, setupOnly)
	if err == nil {
		ep.tally.observe("solver.setup_only", float64(time.Since(t)))
	}

	t = time.Now()
	solver.Evaluate(in, cfg, targets)
	ep.tally.observe("solver.evaluate", float64(time.Since(t)))

	if ep.w.backend == "pop" {
		t = time.Now()
		_, err = partition.Split(in.Region, in.States, ep.w.partitions)
		if err == nil {
			ep.tally.observe("partition.split", float64(time.Since(t)))
		}
	}
}

// phase is one solver phase that ran in a round: the mip backend runs one or
// two, pop that many per partition.
type phase struct {
	solver.PhaseStats
	first bool // the region-wide (MSB) phase, as opposed to the rack phase
}

type stage struct {
	name string
	d    time.Duration
}

// stages are the phase's reported stage durations in the order they ran. A
// patched phase reports its patch time as SolverBuild.
func (ph *phase) stages() []stage {
	build := "solver.solver_build"
	if ph.ModelPatched {
		build = "solver.patch"
	}
	return []stage{
		{"solver.ras_build", ph.RASBuild}, {build, ph.SolverBuild},
		{"solver.initial_state", ph.InitialState}, {"mip", ph.MIP},
	}
}

func phasesOf(res *backend.Result) []phase {
	var subs []*solver.Result
	switch {
	case res.MIP != nil:
		subs = []*solver.Result{res.MIP}
	case res.POP != nil:
		subs = res.POP.Subs
	}
	var out []phase
	for _, r := range subs {
		out = append(out, phase{r.Phase1, true})
		if r.RanPhase2 {
			out = append(out, phase{r.Phase2, false})
		}
	}
	return out
}

// tallyRound adds one traced round's counts, all read from values the layers
// returned.
func (ep *episode) tallyRound(res *backend.Result, rd *round, moverBefore, moverAtSolve mover.Stats, evictionsBefore int) {
	t := &ep.tally
	if rd.solve >= ep.w.deadline {
		t.add("bench.deadline_miss", 1)
	}
	ms := ep.s.mover.Stats()
	_, evictions, _ := ep.s.alloc.Stats()
	t.add("mover.replacements", float64(moverAtSolve.Replacements-moverBefore.Replacements))
	t.add("mover.replacement_miss", float64(moverAtSolve.ReplacementMiss-moverBefore.ReplacementMiss))
	t.add("mover.moves_inuse", float64(ms.MovesInUse-moverAtSolve.MovesInUse))
	t.add("mover.moves_unused", float64(ms.MovesUnused-moverAtSolve.MovesUnused))
	t.add("allocator.evictions", float64(evictions-evictionsBefore))

	var mipTime time.Duration
	for _, ph := range phasesOf(res) {
		t.add("phases", 1)
		if ph.first {
			t.add("phase1s", 1)
			if ph.ModelPatched {
				t.add("solver.patched", 1)
			}
			if ph.WarmRoot {
				t.add("lp.warm_roots", 1)
			}
			if ph.SoftSlack > 0 {
				t.add("solver.soft_slack", 1)
			}
			if !math.IsInf(ph.GapPreemptions, 0) {
				t.observe("mip.gap_preemptions", ph.GapPreemptions)
			}
			t.add("solver.assign_vars", float64(ph.AssignVars))
			t.add("solver.model_rows", float64(ph.ModelRows))
			t.add("solver.groups", float64(ph.Groups))
		} else {
			t.add("solver.phase2s", 1)
		}
		if ph.Nodes >= maxNodes {
			t.add("mip.node_limited", 1)
		}
		mipTime += ph.MIP
		t.add("mip.nodes", float64(ph.Nodes))
		t.add("mip.lp_solves", float64(ph.LPSolves))
		t.add("mip.incumbent_updates", float64(ph.IncumbentUpdates))
		t.add("mip.heuristic_wins", float64(ph.HeuristicWins))
		t.add("lp.iters", float64(ph.LPIters))
		t.add("lp.root_iters", float64(ph.RootLPIters))
		t.add("lp.iter_limited", float64(ph.LPLimited))
	}
	t.add("mip.ns", float64(mipTime))
	t.observe("mip", float64(mipTime))

	if d := res.POP; d != nil {
		var sum, longest time.Duration
		for _, sub := range d.Subs {
			sum += sub.TotalTime()
			longest = max(longest, sub.TotalTime())
		}
		t.observe("backend.pop_sub_sum", float64(sum))
		t.observe("backend.pop_sub_max", float64(longest))
		t.add("backend.pop_repair_moves", float64(d.Repair.Moves()))
	}
}
