package backend

import (
	"context"
	"fmt"
	"math"

	"ras/internal/clock"
	"ras/internal/reservation"
	"ras/internal/solver"
)

// LocalSearchDetail is the local-search backend's result detail.
type LocalSearchDetail struct {
	// Seed counts the seed's acquisitions and releases.
	Seed solver.RepairStats
	// Passes counts the repair passes run; the last one applied nothing
	// unless the solve was stopped first.
	Passes int
	// Repair sums the repair passes' moves and work.
	Repair solver.RepairStats
	// Eval is the objective breakdown of Targets (Result.Objective =
	// Eval.Objective).
	Eval solver.Eval
}

// localSearchBackend is the near-realtime backend ReBalancer offers next to
// the MIP (§6), built from the recombination pass pop already runs: start
// from the round's bindings — or the previous round's assignment where it is
// still legal — seed it (solver.SeedTargets: every short reservation and
// buffer row filled into its least-loaded MSBs, surplus members trimmed),
// then run solver.RepairTargets until a pass applies nothing, checking ctx
// between passes. Every step is priced by the phase-1 objective Evaluate
// scores, so its answer compares directly with the other backends'. It
// proves no bound, runs serial, and is a pure function of its input.
type localSearchBackend struct {
	cfg solver.Config
}

func (b *localSearchBackend) Name() string { return "localsearch" }

func (b *localSearchBackend) Solve(ctx context.Context, in solver.Input, opts Options) (*Result, error) {
	if in.Region == nil {
		return nil, fmt.Errorf("localsearch: nil region")
	}
	if len(in.States) != len(in.Region.Servers) {
		return nil, fmt.Errorf("localsearch: %d states for %d servers", len(in.States), len(in.Region.Servers))
	}
	if opts.TimeLimit > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.TimeLimit)
		defer cancel()
	}
	start := clock.Now()
	targets := make([]reservation.ID, len(in.States))
	if opts.Warm != nil && len(opts.Warm.LocalSearch) == len(targets) {
		copy(targets, opts.Warm.LocalSearch)
	} else {
		for i := range in.States {
			targets[i] = in.States[i].Current
		}
	}
	d := &LocalSearchDetail{Seed: solver.SeedTargets(in, b.cfg, targets)}
	for ctx.Err() == nil {
		st := solver.RepairTargets(in, b.cfg, targets)
		d.Passes++
		d.Repair.Add(st)
		if st.Moves() == 0 {
			break
		}
	}
	d.Eval = solver.Evaluate(in, b.cfg, targets)
	out := &Result{
		Backend:     b.Name(),
		Status:      StatusFeasible,
		Targets:     targets,
		Moves:       solver.CountMoves(in, targets),
		Objective:   d.Eval.Objective,
		Bound:       math.Inf(-1),
		Gap:         math.Inf(1),
		Elapsed:     clock.Since(start),
		LocalSearch: d,
		Warm:        nextWarm(opts.Warm, func(w *WarmState) { w.LocalSearch = targets }),
	}
	// Explicit cancellation only: a deadline running out is a time budget
	// spent (Feasible), as for the other backends.
	if ctx.Err() == context.Canceled {
		out.Status = StatusCancelled
	}
	return out, nil
}
