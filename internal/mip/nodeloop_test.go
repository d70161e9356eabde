package mip

import (
	"context"
	"runtime"
	"testing"
)

// TestNodeLoopAllocsBounded pins what branch-and-bound allocates per node:
// the same seeded model, solved from the same start with a node cap of N and
// of 2N, may allocate for the extra N nodes no more than a node record each
// (its bound change, linked to its parent's) and, where a node branches, the
// basis it hands its children. Nothing per LP — the point is the workspace's,
// the eta file an arena of the factorization — and nothing per heuristic call
// or per child copy of the bound changes: both caps run the periodic node
// heuristics many times over.
func TestNodeLoopAllocsBounded(t *testing.T) {
	const capNodes = 96
	ctx := context.Background()
	var res [2]Result
	measure := func(k int) (allocs, bytes float64) {
		solve := func() {
			m := NewModel()
			addMixedModel(m, 11, 48)
			res[k] = m.Solve(ctx, Options{MaxNodes: capNodes << k, Workers: 1})
		}
		allocs = testing.AllocsPerRun(4, solve)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const runs = 4
		for i := 0; i < runs; i++ {
			solve()
		}
		runtime.ReadMemStats(&after)
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	allocsN, bytesN := measure(0)
	allocs2N, bytes2N := measure(1)
	if res[0].Nodes != capNodes || res[1].Nodes != 2*capNodes {
		t.Fatalf("the searches ran %d and %d nodes, want %d and %d: the model no longer needs them", res[0].Nodes, res[1].Nodes, capNodes, 2*capNodes)
	}
	m := NewModel()
	addMixedModel(m, 11, 48)
	extra := float64(res[1].Nodes - res[0].Nodes)
	words := (m.NumVars() + m.NumConstrs() + 31) / 32
	const linkBytes, basisAllocs, basisBytes = 32, 2, 48 // a boundLink; a Basis, apart from its words
	wantAllocs := extra * (1 + basisAllocs)
	wantBytes := extra * float64(linkBytes+basisBytes+8*words)
	t.Logf("extra %v nodes: %.0f allocs (bound %.0f), %.0f B (bound %.0f)", extra, allocs2N-allocsN, wantAllocs, bytes2N-bytesN, wantBytes)
	if allocs2N-allocsN > wantAllocs || bytes2N-bytesN > wantBytes {
		t.Errorf("the extra %v nodes allocated %.0f times and %.0f B, want ≤ %.0f and ≤ %.0f B",
			extra, allocs2N-allocsN, bytes2N-bytesN, wantAllocs, wantBytes)
	}
}
