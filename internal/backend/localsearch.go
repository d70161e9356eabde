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
	// Seed counts the seed's acquisitions and releases, and Repair the
	// repair's moves and work (solver.RecombineTargets).
	Seed, Repair solver.RepairStats
	// Eval is the objective breakdown of Targets (Result.Objective =
	// Eval.Objective).
	Eval solver.Eval
}

// localSearchBackend is the near-realtime backend ReBalancer offers next to
// the MIP (§6), built from the recombination pop already runs
// (solver.RecombineTargets) on the round's current bindings — in a
// ras.System, the last round's applied targets plus whatever the mover or a
// failure changed since. The seed fills every short reservation and buffer
// row into its least-loaded MSBs and trims surplus members; the repair then
// walks the assignment to its fixed point. Every step is priced by the
// phase-1 objective Evaluate scores, so its answer compares directly with
// the other backends'. Like pop's recombination it reads neither the
// context nor the clock while it runs: a cancel is reported after it. It
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
	start := clock.Now()
	targets := make([]reservation.ID, len(in.States))
	for i := range in.States {
		targets[i] = in.States[i].Current
	}
	d := &LocalSearchDetail{}
	d.Seed, d.Repair = solver.RecombineTargets(in, b.cfg, targets)
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
		Warm:        opts.Warm,
	}
	// Explicit cancellation only: a deadline running out is a time budget
	// spent (Feasible), as for the other backends.
	if ctx.Err() == context.Canceled {
		out.Status = StatusCancelled
	}
	return out, nil
}
