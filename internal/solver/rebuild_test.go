package solver

import (
	"runtime"
	"testing"

	"ras/internal/broker"
	"ras/internal/reservation"
	"ras/internal/topology"
)

// rebuildEvents is a quiet round plus what failure_churn's in-use failures do
// to the model: one assigned server starts running containers, which keys it
// into a symmetry group the cached models lack (in-use, so an in-use move
// cost), and last round's busy server goes idle again. Both phases rebuild,
// and the warm state carries the previous round's bases and workspaces.
func (q *quietRig) rebuildEvents(busy *topology.ServerID) {
	q.quietEvents()
	if *busy >= 0 {
		q.br.SetContainers(*busy, 0)
	}
	var idle []topology.ServerID
	q.br.Scan(func(st *broker.ServerState) {
		if st.Unavail == broker.Available && st.Current != reservation.Unassigned && st.ID != *busy {
			idle = append(idle, st.ID)
		}
	})
	*busy = idle[q.rng.Intn(len(idle))]
	q.br.SetContainers(*busy, 1)
}

// TestRebuildRoundAllocsBounded pins what a rebuild round allocates when the
// previous round's warm state is there to build into: a rebuilt model reuses
// the storage of the one it replaces — its layout index in the spare, the
// index of the phase before, since carryBasis reads the replaced phase's own
// — and its root LP runs on the carried workspace. What is left is what the
// round hands out, the targets and per phase the incumbent and the root
// basis, so it takes the quiet round's bound (TestQuietRoundAllocsBounded).
// A rebuild into new storage allocated a new model, workspace and
// factorization: 20 349 allocations and 2.84 MB per round; one that laid out
// a new index, 220 allocations and 193 kB (BenchmarkRound/rebuild).
func TestRebuildRoundAllocsBounded(t *testing.T) {
	q := newQuietRig(t)
	busy := topology.ServerID(-1)
	for r := 0; r < 4; r++ {
		q.rebuildEvents(&busy)
		in := q.input()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := q.solve(t, in)
		runtime.ReadMemStats(&after)
		if res.Phase1.ModelPatched || res.Phase1.Rebuild != RebuildNewGroup {
			t.Fatalf("round %d: phase 1 patched %v, rebuild reason %v, want a new-group rebuild",
				r, res.Phase1.ModelPatched, res.Phase1.Rebuild)
		}
		vars := res.Phase1.ModelVars + res.Phase2.ModelVars
		const fixedAllocs, fixedBytes = 120, 32 << 10
		limit := uint64(8*len(res.Targets) + 8*vars + vars/2 + fixedBytes) // targets; per phase X and the basis
		allocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
		if allocs > fixedAllocs || bytes > limit {
			t.Errorf("round %d: %d allocs and %d B, want ≤ %d and ≤ %d B (%d model variables)", r, allocs, bytes, fixedAllocs, limit, vars)
		}
	}
}
