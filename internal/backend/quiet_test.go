package backend

import (
	"context"
	"fmt"
	"testing"
	"time"

	"ras/internal/reservation"
	"ras/internal/solver"
)

// TestQuietRoundsSettle runs rounds with nothing to do on the pop_cold
// deployment at failure seeds 1–3: each round's Targets become the next
// round's Current, and its warm state the next round's. The backends that
// settle must reach a fixed point, a round whose Targets equal its Current
// on every server: mip without the rack phase from round 3, and it never
// ships targets that Evaluate scores worse than their start; mip with the
// rack phase, which trades the phase-1 objective for rack spread and takes
// longer, in rounds 16–20, where neither phase searches a node any more: a
// settled phase's search stalled, and a model that stays the same resumes
// its stall count (mip.Options.StallNodes) instead of re-running it; local
// search from round 3. pop does not settle yet, and is left out.
func TestQuietRoundsSettle(t *testing.T) {
	budget := solver.Config{MaxNodes: 100, Phase1TimeLimit: time.Minute, Phase2TimeLimit: time.Minute}
	noRack := budget
	noRack.DisableRackPhase = true
	for _, c := range []struct {
		name, backend string
		cfg           solver.Config
		rounds, quiet int // run rounds 1..rounds; rounds quiet..rounds must not move
		noWorse       bool
		noNodes       bool // nor search a node
	}{
		{"mip/rack-off", "mip", noRack, 5, 3, true, false},
		{"mip/rack-on", "mip", budget, 20, 16, false, true},
		{"localsearch", "localsearch", budget, 5, 3, false, false},
	} {
		be, err := New(c.backend, Config{Solver: c.cfg})
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", c.name, seed), func(t *testing.T) {
				in := popColdInput(t, seed)
				current := make([]reservation.ID, len(in.States))
				var warm *WarmState
				for round := 1; round <= c.rounds; round++ {
					for i := range in.States {
						current[i] = in.States[i].Current
					}
					res, err := be.Solve(context.Background(), in, Options{Workers: 1, Warm: warm})
					if err != nil {
						t.Fatal(err)
					}
					warm = res.Warm
					changed := 0
					for i, tgt := range res.Targets {
						if tgt != current[i] {
							changed++
						}
					}
					if round >= c.quiet && changed > 0 {
						t.Errorf("round %d: %d servers change binding (moves %+v), want none", round, changed, res.Moves)
					}
					if c.noNodes && round >= c.quiet && res.MIP.Phase1.Nodes+res.MIP.Phase2.Nodes > 0 {
						t.Errorf("round %d: %d + %d nodes, want none", round, res.MIP.Phase1.Nodes, res.MIP.Phase2.Nodes)
					}
					if c.noWorse {
						before, after := solver.Evaluate(in, c.cfg, current).Objective, solver.Evaluate(in, c.cfg, res.Targets).Objective
						if after > before {
							t.Errorf("round %d: Evaluate %v at Targets, %v at Current", round, after, before)
						}
					}
					for i, tgt := range res.Targets {
						in.States[i].Current = tgt
					}
				}
			})
		}
	}
}
