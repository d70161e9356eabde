package backend

import (
	"context"
	"math"
	"sync"
	"sync/atomic"

	"ras/internal/clock"
	"ras/internal/mip"
	"ras/internal/partition"
	"ras/internal/reservation"
	"ras/internal/solver"
)

// DefaultPartitions is the pop backend's sub-region count when
// Options.Partitions is zero. Four matches the POP paper's headline
// configuration: most of the speedup with negligible allocation-quality
// loss on granular problems.
const DefaultPartitions = 4

// POPDetail is the pop backend's backend-specific result detail.
type POPDetail struct {
	// Partitions is the effective sub-region count k, and WarmPartitions how
	// many of them were handed a previous round's warm state. What became of
	// each partition's cached models and root bases is on its Subs entry
	// (PhaseStats.Rebuild, RootBasisKept / RootBasisOffered /
	// RootBasisMismatch).
	Partitions     int
	WarmPartitions int
	// SubWorkers is the branch-and-bound worker count each sub-solve ran
	// with, and Concurrent how many sub-solves ran at once —
	// SubWorkers×Concurrent never exceeds the Options.Workers budget.
	SubWorkers int
	Concurrent int
	// Seed and Repair summarize the recombination of the merged targets
	// (solver.RecombineTargets): the seed's acquisitions and releases, then
	// the repair pass's moves and work.
	Seed, Repair solver.RepairStats
	// Eval is the region-wide phase-1 objective breakdown of the final
	// merged-and-repaired assignment (Result.Objective = Eval.Objective).
	Eval solver.Eval
	// Subs holds each partition's full solver result, indexed by partition.
	Subs []*solver.Result
}

// divideWorkers splits a total worker budget across k sub-solves: each
// sub-solve gets w/k branch-and-bound workers (floor 1), and enough
// sub-solves run concurrently to use the budget without oversubscribing:
// perSub×concurrent ≤ max(w, 1), and concurrent ≤ k. Examples: (w=4, k=4)
// → 1×4; (w=1, k=4) → 1×1; (w=8, k=4) → 2×4; (w=4, k=8) → 1×4.
func divideWorkers(w, k int) (perSub, concurrent int) {
	if w < 1 {
		w = 1
	}
	if k < 1 {
		k = 1
	}
	perSub = w / k
	if perSub < 1 {
		perSub = 1
	}
	concurrent = w / perSub
	if concurrent > k {
		concurrent = k
	}
	if concurrent < 1 {
		concurrent = 1
	}
	return perSub, concurrent
}

// popBackend implements POP-style partitioned solving (PAPERS.md: "Solving
// Large-Scale Granular Resource Allocation Problems Efficiently with POP"):
// split the region into k sub-regions along MSB boundaries, solve k
// independent sub-MIPs concurrently on shares of one solve's node and time
// budget (solver.Config.Share), merge, and recombine: seed, then a cheap
// cross-partition repair pass. Whenever each sub-solve runs serial (Workers
// ≤ Partitions), the result is bit-for-bit deterministic at every Workers
// value: partition p's sub-problem and node budget are fixed by the snapshot
// and its warm state by the last round, so which goroutine solves it cannot
// change its answer, and the merge and recombination are pure functions of
// the sub-results.
type popBackend struct {
	cfg solver.Config
}

func (b *popBackend) Name() string { return "pop" }

func (b *popBackend) Solve(ctx context.Context, in solver.Input, opts Options) (*Result, error) {
	start := clock.Now()
	k := opts.Partitions
	if k <= 0 {
		k = DefaultPartitions
	}
	plan, err := partition.Split(in.Region, in.States, k)
	if err != nil {
		return nil, err
	}
	k = plan.K
	demands := partition.SplitDemands(in.Region, in.States, in.Reservations, plan)

	// The sub-solves split one solve's budget: the workers (divideWorkers),
	// the nodes of each phase, and its time over the waves they run in.
	perSub, concurrent := divideWorkers(opts.workers(), k)
	cfg := opts.solverConfig(b.cfg, perSub)

	// Partition p starts from the warm state partition p exported last
	// round, whatever the plan: the sub-solve patches its cached models only
	// for the same sub-problem (RebuildConfig or RebuildScope otherwise),
	// and carries the root basis over by identity (RootBasisMismatch when
	// too little of it still names this sub-problem's columns).
	warms := make([]*solver.WarmState, k)
	if opts.Warm != nil {
		copy(warms, opts.Warm.POP)
	}
	warmParts := 0
	for _, w := range warms {
		if w != nil {
			warmParts++
		}
	}

	// Solve the k sub-MIPs on `concurrent` workers pulling partition
	// indices from an atomic cursor (no channels: simple to prove
	// leak-free, and arrival order cannot influence results — each
	// partition's answer is a function of its own inputs).
	subs := make([]*solver.Result, k)
	errs := make([]error, k)
	var cursor atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < concurrent; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				p := int(cursor.Add(1)) - 1
				if p >= k {
					return
				}
				sub := solver.Input{
					Region:       in.Region,
					Reservations: demands[p],
					States:       in.States,
					Subset:       plan.Subsets[p],
				}
				// Each partition index p is claimed exactly once via the
				// atomic cursor, so workers write disjoint elements, and
				// wg.Wait() orders every write before the merge reads.
				subs[p], errs[p] = solver.SolveWarm(ctx, sub, cfg.Share(p, k, concurrent), warms[p])
			}
		}()
	}
	wg.Wait()
	for p := 0; p < k; p++ {
		if errs[p] != nil {
			return nil, errs[p]
		}
	}

	// Merge: subsets are disjoint and cover the region, so each server's
	// target comes from exactly one sub-result.
	targets := make([]reservation.ID, len(in.Region.Servers))
	for i := range targets {
		targets[i] = reservation.Unassigned
	}
	cancelled := ctx.Err() == context.Canceled
	sawDemand, solvedDemand := false, false
	for p := 0; p < k; p++ {
		for _, id := range plan.Subsets[p] {
			targets[id] = subs[p].Targets[id]
		}
		if subs[p].Cancelled {
			cancelled = true
		}
		if len(demands[p]) > 0 {
			sawDemand = true
			if subs[p].Phase1.Status != mip.NoSolution {
				solvedDemand = true
			}
		}
	}
	noSolution := sawDemand && !solvedDemand

	// Recombine: the seed refills reservations the partitions left short
	// (their eligible servers handed elsewhere), then the repair fixes
	// cross-partition spread/buffer violations and trims the k
	// per-partition embedded buffers down toward one region-wide envelope.
	// A cancelled round returns the raw merge — the caller asked us to stop.
	var seed, repair solver.RepairStats
	if !cancelled {
		seed, repair = solver.RecombineTargets(in, b.cfg, targets)
	}

	ev := solver.Evaluate(in, b.cfg, targets)
	out := &Result{
		Backend:   b.Name(),
		Targets:   targets,
		Moves:     solver.CountMoves(in, targets),
		Objective: ev.Objective,
		// Recombination voids the sub-solves' optimality proofs, so no
		// region-wide bound is claimed.
		Bound:   math.Inf(-1),
		Gap:     math.Inf(1),
		Elapsed: clock.Since(start),
		POP: &POPDetail{
			Partitions:     k,
			WarmPartitions: warmParts,
			SubWorkers:     perSub,
			Concurrent:     concurrent,
			Seed:           seed,
			Repair:         repair,
			Eval:           ev,
			Subs:           subs,
		},
	}
	out.Warm = nextWarm(opts.Warm, func(w *WarmState) {
		w.POP = make([]*solver.WarmState, k)
		for p := 0; p < k; p++ {
			w.POP[p] = subs[p].Warm
		}
	})
	switch {
	case cancelled:
		out.Status = StatusCancelled
	case noSolution:
		out.Status = StatusNoSolution
	default:
		out.Status = StatusFeasible
	}
	return out, nil
}
