package backend

import (
	"fmt"
	"io"

	"ras/internal/lp"
	"ras/internal/mip"
	"ras/internal/solver"
)

// Totals sums what a sequence of solves returned — over the solves, their two
// phases and, under pop, their partitions — into the counters the CLIs print:
// rassolve -v for its one solve, rassim at exit for its run. It holds only
// what was Added; nothing is process-wide.
type Totals struct {
	// Solves counts the phases whose MIP ran; Workers, Nodes, Incumbents and
	// HeuristicWins sum their PhaseStats.
	Solves, Workers, Nodes, Incumbents, HeuristicWins int
	// Patched counts the phases that patched their cached model, Rebuilds
	// every phase by PhaseStats.Rebuild.
	Patched  int
	Rebuilds [solver.NumRebuildReasons]int
	// RackRounds counts the solves that ran the rack phase, RackProven those
	// whose rack phase ended Optimal.
	RackRounds, RackProven int
	Phases                 [2]PhaseTotals
	// POPs counts the pop results Added; the rest sums their POPDetail.
	POPs, Partitions, WarmPartitions, SubSolves int
	Repair                                      solver.RepairStats
}

// PhaseTotals sums one solve phase: its LP counters, and what became of the
// previous round's root basis in the phases offered one — how many were,
// completed their root LP from it, dropped it as a mismatch, the columns kept
// of those offered, and the roots that abandoned it, by reason.
type PhaseTotals struct {
	LP                                  lp.Stats
	RootOffered, RootWarm, RootMismatch int
	ColumnsKept, ColumnsOffered         int
	RootCold                            lp.ColdCounts
}

// Add accumulates one solve's result.
func (t *Totals) Add(res *Result) {
	for _, r := range res.SolverResults() {
		if r.RanPhase2 {
			t.RackRounds++
			if r.Phase2.Status == mip.Optimal {
				t.RackProven++
			}
		}
		for i, ph := range [2]*solver.PhaseStats{&r.Phase1, &r.Phase2} {
			if ph.Workers > 0 { // resolved to ≥ 1 exactly when the phase's MIP ran
				t.Solves++
			}
			t.Workers += ph.Workers
			t.Nodes += ph.Nodes
			t.Incumbents += ph.IncumbentUpdates
			t.HeuristicWins += ph.HeuristicWins
			if ph.ModelPatched {
				t.Patched++
			}
			t.Rebuilds[ph.Rebuild]++
			t.Phases[i].add(ph)
		}
	}
	if d := res.POP; d != nil {
		t.POPs++
		t.Partitions += d.Partitions
		t.WarmPartitions += d.WarmPartitions
		t.SubSolves += len(d.Subs)
		t.Repair.Add(d.Repair)
	}
}

func (p *PhaseTotals) add(ph *solver.PhaseStats) {
	p.LP.Add(ph.LP)
	if ph.RootBasisOffered == 0 {
		return
	}
	p.RootOffered++
	p.ColumnsKept += ph.RootBasisKept
	p.ColumnsOffered += ph.RootBasisOffered
	if ph.WarmRoot {
		p.RootWarm++
	}
	if ph.RootBasisMismatch {
		p.RootMismatch++
	}
	if ph.RootCold != lp.ColdNone {
		p.RootCold[ph.RootCold]++
	}
}

// Fallbacks counts the phases that rebuilt although a cached model was there
// to patch: every rebuild reason after RebuildNoCache, which is a miss.
func (t *Totals) Fallbacks() int {
	n := 0
	for r := solver.RebuildNoCache + 1; r < solver.NumRebuildReasons; r++ {
		n += t.Rebuilds[r]
	}
	return n
}

// Print writes the totals as greppable "label: key=value" lines: solver,
// model-cache, lp, lp-factor, pop when a pop result was Added, then an lp-warm
// line per phase that ran an LP — columns flipped to their opposite bound or
// held back by a cost shift to keep a warm basis dual feasible, warm starts
// abandoned for a cold solve by reason, the kernel counters, the root basis.
func (t *Totals) Print(w io.Writer) {
	p1, p2 := &t.Phases[0], &t.Phases[1]
	l := p1.LP
	l.Add(p2.LP)
	fmt.Fprintf(w, "solver: solves=%d workers=%d nodes=%d incumbents=%d heuristic_wins=%d round_warm_hits=%d round_warm_misses=%d\n",
		t.Solves, t.Workers, t.Nodes, t.Incumbents, t.HeuristicWins, p1.RootWarm+p2.RootWarm, p1.RootMismatch+p2.RootMismatch)
	fmt.Fprintf(w, "model-cache: patch_hits=%d patch_misses=%d fallback_rebuilds=%d\n",
		t.Patched, t.Rebuilds[solver.RebuildNoCache], t.Fallbacks())
	fmt.Fprintf(w, "lp: solves=%d iters=%d dual_iters=%d refactorizations=%d workspace_reuses=%d warm_hits=%d warm_misses=%d\n",
		l.Solves, l.Iterations, l.DualIterations, l.Refactorizations, l.WorkspaceReuses, l.WarmHits, l.ColdFallbacks.Total())
	fmt.Fprintf(w, "lp-factor: update_etas=%d fill_ins=%d singular_repairs=%d\n", l.UpdateEtas, l.FillIns, l.SingularRepairs)
	if t.POPs > 0 {
		fmt.Fprintf(w, "pop: partitions=%d partition_solves=%d repair_moves=%d repair_steps=%d repair_candidates=%d partition_warm_hits=%d partition_warm_misses=%d\n",
			t.Partitions, t.SubSolves, t.Repair.Moves(), t.Repair.Steps, t.Repair.Candidates, t.WarmPartitions, t.Partitions-t.WarmPartitions)
	}
	for i, p := range t.Phases {
		if l := p.LP; l.Solves > 0 {
			fmt.Fprintf(w, "lp-warm phase%d: solves=%d iters=%d flipped_columns=%d cost_shifts=%d cold_fallbacks=%d (%v) %s root_basis: offered=%d warm=%d mismatch=%d columns_kept=%d/%d cold=%v\n",
				i+1, l.Solves, l.Iterations, l.FlippedColumns, l.CostShifts, l.ColdFallbacks.Total(), l.ColdFallbacks,
				l.Kernel(), p.RootOffered, p.RootWarm, p.RootMismatch, p.ColumnsKept, p.ColumnsOffered, p.RootCold)
		}
	}
}
