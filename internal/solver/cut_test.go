package solver

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"ras/internal/broker"
	"ras/internal/hardware"
	"ras/internal/mip"
	"ras/internal/reservation"
	"ras/internal/topology"
)

// TestRoundingCutIsValid: for random thresholds t and every integer sum Σ in
// [0, 3t], the point of the hinge's epigraph over Σ, (Σ, max(0, Σ − t)),
// satisfies the cut, with equality at ⌊t⌋ and ⌈t⌉ — and an integral t has no
// cut.
func TestRoundingCutIsValid(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		thr := 0.01 + 40*rng.Float64()
		slope, floor, ok := roundingCut(thr)
		if !ok {
			t.Fatalf("t = %v: no cut for a fractional threshold", thr)
		}
		if slope <= 0 || slope >= 1 || floor != math.Floor(thr) {
			t.Fatalf("t = %v: slope %v, floor %v", thr, slope, floor)
		}
		for sum := 0.0; sum <= 3*thr; sum++ {
			y, cut := math.Max(0, sum-thr), slope*(sum-floor)
			if y < cut-1e-12 {
				t.Fatalf("t = %v: the cut removes the integer point Σ = %v: y = %v < %v", thr, sum, y, cut)
			}
			if (sum == floor || sum == floor+1) && math.Abs(y-cut) > 1e-12 {
				t.Fatalf("t = %v: the cut is slack by %v at Σ = %v", thr, y-cut, sum)
			}
		}
	}
	for _, thr := range []float64{0, 1, 8, 8 + 1e-10, 9 - 1e-10} {
		if _, _, ok := roundingCut(thr); ok {
			t.Fatalf("t = %v: a cut for an integral threshold", thr)
		}
	}
}

// rackWorld is a seeded small rack-level input as the rack phase meets it: a
// region-level solve has placed two count-based reservations, the placement
// has been applied, and two servers have failed since.
func rackWorld(t *testing.T, seed int64) *builtPhase {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	region := testRegion(t, 1, 3, 2, 3, 100+seed)
	rsvs := []reservation.Reservation{
		{ID: 0, Name: "web", Class: hardware.Web, RRUs: float64(3 + rng.Intn(3)), CountBased: true, Policy: reservation.DefaultPolicy()},
		{ID: 1, Name: "feed", Class: hardware.Feed1, RRUs: float64(2 + rng.Intn(2)), CountBased: true, Policy: reservation.DefaultPolicy()},
	}
	in := freshInput(region, rsvs)
	cfg := fastCfg()
	cfg.DisableRackPhase = true
	res, err := Solve(context.Background(), in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	applyRound(&in, res.Targets)
	for k := 0; k < 2; k++ {
		in.States[rng.Intn(len(in.States))].Unavail = broker.RandomFailure
	}
	cfg = cfg.withDefaults(region)
	targets := make([]reservation.ID, len(in.States))
	for i := range targets {
		targets[i] = in.States[i].Current
	}
	var st PhaseStats
	return buildPhase(in, cfg, buildSpecs(in, cfg), usableServers(in), targets, true, &st)
}

// cutRowsOf lists the model's rounding-cut rows.
func (bp *builtPhase) cutRowsOf() []int {
	var rows []int
	for si := range bp.sp {
		for _, cuts := range [][]int{bp.sp[si].spreadCut, bp.sp[si].rackCut} {
			for _, r := range cuts {
				if r >= 0 {
					rows = append(rows, r)
				}
			}
		}
	}
	return rows
}

// TestRackCutKeepsOptimum: the cuts take nothing from the MIP. Each seeded
// rack-level model is solved to proven optimality as built, then again with
// every cut row relaxed out of existence (right-hand side −1e18): the optimum
// is the same, and with the cuts the root bound is never lower and the search
// never longer.
func TestRackCutKeepsOptimum(t *testing.T) {
	ctx := context.Background()
	opt := mip.Options{MaxNodes: 200000, Workers: 1}
	cutModels, lifted := 0, 0
	for seed := int64(1); seed <= 24; seed++ {
		bp := rackWorld(t, seed)
		cuts := bp.cutRowsOf()
		if len(cuts) != bp.cutRows {
			t.Fatalf("seed %d: %d cut rows in the layout tables, cutRows = %d", seed, len(cuts), bp.cutRows)
		}
		if len(cuts) == 0 {
			continue
		}
		cutModels++
		with := bp.m.Solve(ctx, opt)
		for _, r := range cuts {
			bp.m.SetRHS(r, -1e18)
		}
		without := bp.m.Solve(ctx, opt)
		if with.Status != mip.Optimal || without.Status != mip.Optimal {
			t.Fatalf("seed %d: status %v with the cuts, %v without: not searched to the end", seed, with.Status, without.Status)
		}
		if d := math.Abs(with.Objective - without.Objective); d > 1e-6 {
			t.Fatalf("seed %d: optimum %.9g with the cuts, %.9g without", seed, with.Objective, without.Objective)
		}
		if with.RootObjective < without.RootObjective-1e-7 {
			t.Fatalf("seed %d: root bound %.9g with the cuts, %.9g without", seed, with.RootObjective, without.RootObjective)
		}
		if with.Nodes > without.Nodes {
			t.Fatalf("seed %d: %d nodes with the cuts, %d without", seed, with.Nodes, without.Nodes)
		}
		if with.RootObjective > without.RootObjective+1e-7 {
			lifted++
		}
		t.Logf("seed %d: %d cuts, optimum %.4f, root %.4f → %.4f, nodes %d → %d", seed, len(cuts),
			with.Objective, without.RootObjective, with.RootObjective, without.Nodes, with.Nodes)
	}
	if cutModels < 20 {
		t.Fatalf("only %d of 24 models have cut rows", cutModels)
	}
	if lifted == 0 {
		t.Fatal("the cuts lifted no model's root bound: the fixtures lost their point")
	}
}

// TestCutRowsWhereSumsAreCounts: a model has rounding cuts exactly where the
// hinge's sum is a count and its threshold fractional — the rack-level model's
// count-based user specs — and the region-level model has none.
func TestCutRowsWhereSumsAreCounts(t *testing.T) {
	region := testRegion(t, 2, 2, 4, 6, 61)
	m := newMutator(t, region, 1, 12)
	in := m.input()
	cfg := fastCfg()
	cfg.SharedBufferFraction = 0.05
	cfg = cfg.withDefaults(region)
	for _, rackLevel := range []bool{false, true} {
		var st PhaseStats
		bp := buildPhase(in, cfg, buildSpecs(in, cfg), usableServers(in), fixtureTargets(in.States, rackLevel), rackLevel, &st)
		if !rackLevel {
			if bp.cutRows != 0 || len(bp.cutRowsOf()) != 0 {
				t.Fatalf("the region-level model has %d cut rows", bp.cutRows)
			}
			continue
		}
		withCuts := 0
		for si := range bp.specs {
			s, sp := &bp.specs[si], &bp.sp[si]
			for _, fam := range []struct {
				name       string
				alpha      float64
				rows, cuts []int
			}{{"MSB", s.alphaF, sp.spreadRow, sp.spreadCut}, {"rack", s.alphaK, sp.rackRow, sp.rackCut}} {
				_, _, fractional := roundingCut(fam.alpha * s.res.RRUs)
				want := s.res.CountBased && !s.isBuffer && fractional
				for k, row := range fam.rows {
					if got := fam.cuts[k] >= 0; got != (want && row >= 0) {
						t.Fatalf("spec %d (%s, count-based %v, buffer %v, α·C = %v): %s hinge %d has cut = %v",
							si, s.res.Name, s.res.CountBased, s.isBuffer, fam.alpha*s.res.RRUs, fam.name, k, got)
					}
				}
				if want {
					withCuts++
				}
			}
		}
		if withCuts == 0 || withCuts == 2*len(bp.specs) {
			t.Fatalf("%d of %d spec × scope families have cuts: the fixture lost its point", withCuts, 2*len(bp.specs))
		}
	}
}

// TestWorkspaceCarryMatchesFresh runs two SolveWarm sequences over one
// 50-round mutation stream, both on the delta protocol; one hands each round
// the previous round's root workspaces with the rest of the warm state, the
// other has them taken away. Round for round the phases end in the same
// status at the same objective, and what a round reports as its LP work is
// exactly what its (carried) root workspace did since it was handed over —
// at Workers = 1 that workspace runs every LP of the phase. A phase that
// rebuilt its model runs on the carried workspace too, retargeted, and
// matches the fresh side to the bit; a patched phase's live re-entry may
// differ from a fresh factorization in the last bits.
func TestWorkspaceCarryMatchesFresh(t *testing.T) {
	region := testRegion(t, 2, 2, 3, 5, 43)
	mA := newMutator(t, region, 45, 5)
	mB := newMutator(t, region, 45, 5)
	cfg := fastCfg()
	cfg.Workers = 1

	var warmA, warmB *WarmState
	carried, reentered, rebuilt := 0, 0, 0
	for round := 0; round < 50; round++ {
		prevA := warmA
		if round > 0 {
			mA.step(round%9 == 6)
			mB.step(round%9 == 6)
		}
		inA, inB := mA.input(), mB.input()
		if warmB != nil {
			warmB.Phase1.ws, warmB.Phase2.ws = nil, nil
		}
		resA, err := SolveWarm(context.Background(), inA, cfg, warmA)
		if err != nil {
			t.Fatal(err)
		}
		resB, err := SolveWarm(context.Background(), inB, cfg, warmB)
		if err != nil {
			t.Fatal(err)
		}
		warmA, warmB = resA.Warm, resB.Warm

		for k, ph := range [2][2]*PhaseStats{{&resA.Phase1, &resB.Phase1}, {&resA.Phase2, &resB.Phase2}} {
			a, b := ph[0], ph[1]
			if a.Status != b.Status || a.ModelPatched != b.ModelPatched {
				t.Fatalf("round %d phase %d: %v patched=%v on carried workspaces, %v patched=%v on fresh ones",
					round, k+1, a.Status, a.ModelPatched, b.Status, b.ModelPatched)
			}
			if d := math.Abs(a.Objective - b.Objective); d > 1e-9*(1+math.Abs(b.Objective)) {
				t.Fatalf("round %d phase %d: objective %.12g on carried workspaces, %.12g on fresh ones", round, k+1, a.Objective, b.Objective)
			}
			pw := [2]*PhaseWarm{&resA.Warm.Phase1, &resA.Warm.Phase2}[k]
			if pw.ws == nil {
				continue // the phase did not run
			}
			if prev := prevA; !a.ModelPatched && prev != nil {
				if prevWS := [2]*PhaseWarm{&prev.Phase1, &prev.Phase2}[k].ws; prevWS != nil {
					rebuilt++
					if pw.ws != prevWS {
						t.Fatalf("round %d phase %d: the rebuilt model's root ran on a new workspace, not last round's", round, k+1)
					}
					if math.Float64bits(a.Objective) != math.Float64bits(b.Objective) || a.LPIters != b.LPIters {
						t.Fatalf("round %d phase %d: rebuilt model: objective %.17g in %d LP iterations on the carried workspace, %.17g in %d on a fresh one",
							round, k+1, a.Objective, a.LPIters, b.Objective, b.LPIters)
					}
				}
			}
			if got := pw.ws.Stats(); got != a.LP {
				t.Fatalf("round %d phase %d: the result reports LP work %+v, its root workspace did %+v", round, k+1, a.LP, got)
			}
			// Every solve on a carried workspace re-enters a built structure;
			// a fresh one builds it for its first.
			if a.ModelPatched && a.RootBasisOffered > 0 {
				carried++
				if a.LP.WorkspaceReuses != a.LP.Solves || b.LP.WorkspaceReuses != b.LP.Solves-1 {
					t.Fatalf("round %d phase %d: %d of %d solves reused the carried structure, %d of %d the fresh one",
						round, k+1, a.LP.WorkspaceReuses, a.LP.Solves, b.LP.WorkspaceReuses, b.LP.Solves)
				}
				if a.LP.Refactorizations < b.LP.Refactorizations {
					reentered++
				}
			}
		}
		for i, tgt := range resA.Targets {
			if resB.Targets[i] != tgt {
				t.Fatalf("round %d: target[%d] = %d on carried workspaces, %d on fresh ones", round, i, tgt, resB.Targets[i])
			}
			if mA.b.State(topology.ServerID(i)).Current != tgt && ptrState(mA.b, i).Usable() {
				mA.b.SetCurrent(topology.ServerID(i), tgt)
				mB.b.SetCurrent(topology.ServerID(i), tgt)
			}
		}
	}
	if carried < 10 || reentered == 0 || rebuilt < 10 {
		t.Fatalf("%d patched phases ran on a carried workspace, %d of them re-entered its factorization, %d rebuilt ones: the sequence no longer covers the carry",
			carried, reentered, rebuilt)
	}
	t.Logf("50 rounds: %d patched phases on a carried workspace, %d with fewer refactorizations than on a fresh one; %d rebuilt phases on a carried workspace",
		carried, reentered, rebuilt)
}
