// Package backend defines the pluggable solver-backend seam of the RAS
// continuous optimizer. The paper's ReBalancer (§6) is "a common
// optimization library" that "can choose different backend solvers to solve
// an optimization problem": RAS uses the two-phase MIP solver for placement
// quality, while near-realtime users pick a local-search solver. This
// package is that seam — one Backend interface, one common Result shape,
// and New mapping backend names to constructors — so that every
// production caller (the ras.System façade, the CLIs, the experiment
// runners) selects a solver by name instead of hard-wiring a code path.
//
// The cancellation contract: Backend.Solve takes a context.Context that
// bounds the entire solve. Cancellation propagates cooperatively down the
// whole stack (branch-and-bound nodes, simplex iteration loops, local-search
// repair passes); a cancelled solve is NOT an error — it returns promptly
// with the best incumbent assignment found so far and Status
// StatusCancelled, so a supervisor can always apply the most recent targets
// it has.
package backend

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"ras/internal/clock"
	"ras/internal/mip"
	"ras/internal/reservation"
	"ras/internal/solver"
)

// Options are the backend-independent per-solve knobs. Backend-specific
// tuning lives in Config and is fixed at construction time; Options varies
// per call.
type Options struct {
	// TimeLimit bounds the whole solve. Zero keeps each backend's
	// configured/default budget. A ctx deadline earlier than TimeLimit wins
	// either way; Solve implementations derive their internal deadlines from
	// the context.
	TimeLimit time.Duration
	// Workers caps one solve's parallelism: branch-and-bound workers for
	// the MIP backend and the total budget the pop backend divides across
	// its concurrent sub-solves (never multiplies — `-workers 4 -partitions
	// 4` runs 4 serial sub-solves, not 16 threads). Local search is serial
	// and ignores it. Zero means runtime.NumCPU() — backends exploit the
	// whole machine unless told otherwise; this is the one place zero is
	// resolved, and solver.Config.Workers gets the resolved count. Negative
	// or 1 forces the exact serial engines.
	Workers int
	// Partitions is the pop backend's sub-region count k (clamped to the
	// region's MSB count). Zero means DefaultPartitions. Other backends
	// ignore it.
	Partitions int
	// Warm carries cross-round warm-start state: pass the previous round's
	// Result.Warm so consecutive solves of the continuous-optimization loop
	// amortize work (root-LP bases for the MIP backend, the last assignment
	// for local search). nil — or state from a differently shaped problem —
	// solves cold. Each backend reads only its own field, so one WarmState
	// can be threaded through rounds that switch backends.
	Warm *WarmState
}

// WarmState is the backend-independent container for cross-round warm-start
// state. A backend populates its own field in Result.Warm and consumes the
// same field from Options.Warm; foreign fields pass through untouched.
type WarmState struct {
	// MIP is the two-phase solver's persisted root bases.
	MIP *solver.WarmState
	// LocalSearch is the last local-search assignment.
	LocalSearch []reservation.ID
	// POP is the partitioned backend's per-partition warm state.
	POP *POPWarm
}

// workers resolves the Workers knob: zero → NumCPU, floor 1.
func (o Options) workers() int {
	w := o.Workers
	if w == 0 {
		w = runtime.NumCPU()
	}
	if w < 1 {
		w = 1
	}
	return w
}

// solverConfig is cfg for a solve under these options: the two-phase solver's
// resolved worker count, and a joint TimeLimit split like production's
// one-hour SLO — most of it on the region-wide phase, the rest on rack
// refinement.
func (o Options) solverConfig(cfg solver.Config, workers int) solver.Config {
	if o.TimeLimit > 0 {
		cfg.Phase1TimeLimit = o.TimeLimit * 2 / 3
		cfg.Phase2TimeLimit = o.TimeLimit / 3
	}
	cfg.Workers = workers
	return cfg
}

// Backend is one interchangeable optimization engine producing a full
// server-to-reservation assignment from a solve snapshot.
type Backend interface {
	// Name reports the name New constructs the backend under.
	Name() string
	// Solve runs one optimization round. It honours ctx per the package
	// cancellation contract: cancellation returns the best incumbent with
	// Status StatusCancelled rather than an error.
	Solve(ctx context.Context, in solver.Input, opts Options) (*Result, error)
}

// Status classifies a backend solve outcome.
type Status int8

// Solve outcomes.
const (
	// StatusOptimal means the backend proved its assignment optimal within
	// its tolerances.
	StatusOptimal Status = iota
	// StatusFeasible means a valid assignment exists but the search stopped
	// on a time/step budget; Gap (when finite) quantifies the uncertainty.
	StatusFeasible
	// StatusCancelled means the context was cancelled mid-solve; Targets
	// hold the best incumbent found before the stop.
	StatusCancelled
	// StatusNoSolution means the backend produced no usable assignment.
	StatusNoSolution
)

func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusFeasible:
		return "feasible"
	case StatusCancelled:
		return "cancelled"
	case StatusNoSolution:
		return "no-solution"
	}
	return fmt.Sprintf("Status(%d)", int8(s))
}

// Result is the backend-independent outcome of one solve: the assignment
// plus the quality statistics every backend can report. Backend-specific
// detail (phase breakdowns, step counts) rides along in exactly one of the
// typed detail fields.
type Result struct {
	// Backend is the name of the backend that produced the result.
	Backend string
	// Status classifies the outcome; StatusCancelled still carries targets.
	Status Status
	// Targets maps every server to its target reservation
	// (reservation.Unassigned for the free pool, reservation.SharedBuffer
	// for the shared random-failure buffer).
	Targets []reservation.ID
	// Moves counts the server moves the assignment implies (Figure 16).
	Moves solver.MoveStats
	// Objective is the phase-1 objective functional (solver.Evaluate's) at
	// Targets for local search and pop. For mip it is the MIP's phase-1
	// objective, priced before the rack phase refines Targets.
	Objective float64
	// Bound is the best proven lower bound on the optimum; -Inf when the
	// backend proves none (local search never does).
	Bound float64
	// Gap is Objective − Bound (+Inf when no bound was proven).
	Gap float64
	// Elapsed is the solve wall-clock time.
	Elapsed time.Duration

	// MIP carries the two-phase solver detail; set iff the MIP backend ran.
	MIP *solver.Result
	// LocalSearch carries the search detail; set iff that backend ran.
	LocalSearch *LocalSearchDetail
	// POP carries the partitioned backend detail; set iff that backend ran.
	POP *POPDetail

	// Warm is the cross-round warm-start state to feed the next round's
	// Options.Warm. It starts from the state passed in (so foreign backends'
	// fields survive a backend switch) with this backend's field updated.
	Warm *WarmState
}

// SolverResults lists the two-phase solver results behind r: one for the
// MIP backend, one per partition for pop, none for local search.
func (r *Result) SolverResults() []*solver.Result {
	switch {
	case r.MIP != nil:
		return []*solver.Result{r.MIP}
	case r.POP != nil:
		return r.POP.Subs
	}
	return nil
}

// Config carries the tuning for every backend, so one Config can construct
// any of them.
type Config struct {
	// Solver tunes the two-phase MIP solves of mip and pop, and sets the
	// objective weights and shared-buffer size every backend scores with.
	Solver solver.Config
}

// DefaultName is the backend the façade uses when none is selected: the
// two-phase MIP, the solver RAS itself runs in production.
const DefaultName = "mip"

// New constructs the named backend from cfg. An empty name selects
// DefaultName. Unknown names report the alternatives, a §5.3 operability
// courtesy.
func New(name string, cfg Config) (Backend, error) {
	if name == "" {
		name = DefaultName
	}
	switch name {
	case "mip":
		return &mipBackend{cfg: cfg.Solver}, nil
	case "localsearch":
		return &localSearchBackend{cfg: cfg.Solver}, nil
	case "pop":
		return &popBackend{cfg: cfg.Solver}, nil
	}
	return nil, fmt.Errorf("backend: unknown backend %q (registered: %v)", name, Names())
}

// Names lists the backend names New accepts, sorted.
func Names() []string { return []string{"localsearch", "mip", "pop"} }

// nextWarm derives the warm state a solve hands to the next round: a copy of
// the incoming state (so a backend switch preserves the other backends'
// fields) with this backend's field set.
func nextWarm(prev *WarmState, set func(*WarmState)) *WarmState {
	w := &WarmState{}
	if prev != nil {
		*w = *prev
	}
	set(w)
	return w
}

// mipBackend adapts the two-phase MIP solver (internal/solver) to the
// Backend interface.
type mipBackend struct {
	cfg solver.Config
}

func (b *mipBackend) Name() string { return "mip" }

func (b *mipBackend) Solve(ctx context.Context, in solver.Input, opts Options) (*Result, error) {
	cfg := opts.solverConfig(b.cfg, opts.workers())
	var warm *solver.WarmState
	if opts.Warm != nil {
		warm = opts.Warm.MIP
	}
	start := clock.Now()
	res, err := solver.SolveWarm(ctx, in, cfg, warm)
	if err != nil {
		return nil, err
	}
	out := &Result{
		Backend:   b.Name(),
		Targets:   res.Targets,
		Moves:     res.Moves,
		Objective: res.Phase1.Objective,
		Bound:     res.Phase1.Bound,
		Gap:       res.Phase1.Objective - res.Phase1.Bound,
		Elapsed:   clock.Since(start),
		MIP:       res,
		Warm:      nextWarm(opts.Warm, func(w *WarmState) { w.MIP = res.Warm }),
	}
	switch {
	case res.Cancelled || res.Phase1.Status == mip.Cancelled:
		out.Status = StatusCancelled
	case res.Phase1.Status == mip.Optimal:
		out.Status = StatusOptimal
	case res.Phase1.Status == mip.Feasible:
		out.Status = StatusFeasible
	default:
		out.Status = StatusNoSolution
		out.Bound = math.Inf(-1)
		out.Gap = math.Inf(1)
	}
	return out, nil
}
