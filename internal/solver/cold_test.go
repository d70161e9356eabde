package solver

import (
	"runtime"
	"testing"

	"ras/internal/broker"
	"ras/internal/topology"
)

// coldEvents makes the next round one of cold_solve's: a fresh system — a new
// broker with nothing assigned, no warm state, no model cache — on the
// production shared buffer, with 1 % of its servers failed at random.
func (q *quietRig) coldEvents() {
	q.br = broker.New(q.region)
	q.warm = nil
	q.down = q.down[:0]
	q.cfg.SharedBufferFraction = 0
	n := len(q.region.Servers)
	for _, i := range q.rng.Perm(n)[:n/100] {
		q.br.SetUnavailable(topology.ServerID(i), broker.RandomFailure, 0, 1)
	}
}

// TestColdRoundAllocsBounded pins what a cold round allocates: what a fresh
// system has to build — the model, its LP workspace and factorization — and
// what the round hands out (the targets, the incumbent, the root basis), and
// beyond that, per branch-and-bound node, no more than the records of the two
// children it branches into and the basis it hands them. Nothing per LP or
// per heuristic call: the LP point, the eta file and the heuristics' scratch
// are storage the search keeps. The build and the hand-out are measured on the
// same input with the search capped at one node (root LP and root heuristics
// included), and the full round may add only that per node. The rack phase is
// off, because its model depends on what phase 1 found.
func TestColdRoundAllocsBounded(t *testing.T) {
	q := newQuietRig(t)
	for r := 0; r < 3; r++ {
		q.coldEvents()
		in := q.input()
		solve := func(maxNodes int) (*Result, uint64, uint64) {
			q.warm, q.cfg.MaxNodes, q.cfg.DisableRackPhase = nil, maxNodes, true
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res := q.solve(t, in)
			runtime.ReadMemStats(&after)
			return res, after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
		}
		built, builtAllocs, builtBytes := solve(1)
		res, allocs, bytes := solve(100)
		if res.Phase1.ModelPatched || res.Phase1.Nodes < 50 {
			t.Fatalf("round %d is not a cold round: patched %v, %d nodes", r, res.Phase1.ModelPatched, res.Phase1.Nodes)
		}
		nodes := res.Phase1.Nodes + res.Phase2.Nodes - built.Phase1.Nodes - built.Phase2.Nodes
		words := (res.Phase1.ModelVars + res.Phase1.ModelRows + 31) / 32
		// Per node two node records (32 B) and a basis (48 B and its words);
		// the open list and the search's scratch grow geometrically.
		const perNodeAllocs, fixedAllocs, fixedBytes = 2 + 2, 64, 32 << 10
		allocLimit := builtAllocs + uint64(perNodeAllocs*nodes+fixedAllocs)
		byteLimit := builtBytes + uint64(nodes*(2*32+48+8*words)+fixedBytes)
		t.Logf("round %d: %d more nodes added %d allocs and %d B (limits %d and %d B)",
			r, nodes, allocs-builtAllocs, bytes-builtBytes, allocLimit-builtAllocs, byteLimit-builtBytes)
		if allocs > allocLimit || bytes > byteLimit {
			t.Errorf("round %d: %d allocs and %d B, want ≤ %d and ≤ %d B (the round at one node: %d and %d B; %d more nodes)",
				r, allocs, bytes, allocLimit, byteLimit, builtAllocs, builtBytes, nodes)
		}
	}
}
