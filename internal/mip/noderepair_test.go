package mip

import (
	"context"
	"slices"
	"testing"
)

// TestNodeRepairWaitsForSoftIncumbent: a node completion (processNode's
// roundRepairComplete at nodes 1, 17, …) runs only while the shared incumbent
// leaves penalty slack. On spreadModel, whose capacity rows carry a penalty
// slack, the root heuristics find a slack-free incumbent and no node of a
// 60-node search completes; with every demand doubled, past what rounding
// reaches, the incumbent stays softened and a completion runs at every node
// the schedule names.
func TestNodeRepairWaitsForSoftIncumbent(t *testing.T) {
	var at []int64
	onNodeRepair = func(node int64) { at = append(at, node) }
	defer func() { onNodeRepair = nil }()

	for _, c := range []struct {
		demand float64 // factor on every capacity row's right-hand side
		want   []int64
	}{
		{1, nil},
		{2, []int64{1, 17, 33, 49}},
	} {
		at = at[:0]
		m := spreadModel(5, 5, 3, 4)
		for i := 0; i < m.NumConstrs(); i++ {
			if m.ConstrName(i) == "cap" {
				m.SetRHS(i, c.demand*m.prob.RHS(i))
			}
		}
		res := m.Solve(context.Background(), Options{MaxNodes: 60, Workers: 1})
		if res.Status != Feasible || res.Nodes != 60 {
			t.Fatalf("demand ×%v: status %v after %d nodes, want a feasible 60-node search", c.demand, res.Status, res.Nodes)
		}
		if soft := m.softened(res.X); soft != (c.want != nil) {
			t.Fatalf("demand ×%v: incumbent softened = %v", c.demand, soft)
		}
		if !slices.Equal(at, c.want) {
			t.Fatalf("demand ×%v: node completions at %v, want %v", c.demand, at, c.want)
		}
	}
}
