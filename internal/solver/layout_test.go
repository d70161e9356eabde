package solver

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"ras/internal/lp"
	"ras/internal/mip"
)

// TestLayoutRowsAreCanonical: every row the layout writes names each column
// once, with a nonzero coefficient. A mip.Model keeps its rows only in its
// lp.Problem, whose AddRow drops zero coefficients and sums a repeated
// column; on the RAS layout that must change nothing, so that the model
// hashes, evaluates and solves exactly the rows the layout wrote. The test
// rewrites every row from the layout's tables — the paper's expressions over
// nVar and vval, the only source of the layout's coefficients — checks that
// the rewrite is canonical (a zero V or cut slope fails here), and requires
// the row the model stored to equal it entry for entry (a repeated column
// shows as a summed coefficient, a missing one as a missing entry). It covers
// the golden fixture and the cold builds of the patch streams; a patch never
// adds or edits a row, and a patched model's rows equal its cold rebuild's
// (TestPatchMatchesColdRebuild).
func TestLayoutRowsAreCanonical(t *testing.T) {
	models := 0
	for seed := int64(1); seed <= 3; seed++ {
		region := testRegion(t, 2, 2, 4, 6, 60+seed)
		m := newMutator(t, region, seed, 12)
		for k := 0; k < 10; k++ {
			m.step(k == 5)
		}
		in := m.input()
		for _, tc := range []struct {
			rackLevel bool
			buffer    float64
		}{{false, -1}, {false, 0.05}, {true, -1}} {
			cfg := fastCfg()
			cfg.SharedBufferFraction = tc.buffer
			cfg.WearPenalty = 2
			cfg = cfg.withDefaults(region)
			var stats PhaseStats
			bp := buildPhase(in, cfg, buildSpecs(in, cfg), usableServers(in), fixtureTargets(in.States, tc.rackLevel), tc.rackLevel, &stats)
			checkLayoutRows(t, fmt.Sprintf("golden seed %d rack %v buffer %v", seed, tc.rackLevel, tc.buffer), bp)
			models++
		}
	}
	for _, pk := range patchPhases {
		region := testRegion(t, 2, 2, 4, 12, 41)
		m := newMutator(t, region, 42, 6)
		cfg := fastCfg()
		cfg.SharedBufferFraction = pk.buffer
		cfg.WearPenalty = pk.wear
		cfg = cfg.withDefaults(region)
		for round := 0; round < 40; round++ {
			if round > 0 {
				m.step(round%7 == 3)
			}
			in := m.input()
			var stats PhaseStats
			bp := buildPhase(in, cfg, buildSpecs(in, cfg), usableServers(in), fixtureTargets(in.States, pk.rackLevel), pk.rackLevel, &stats)
			checkLayoutRows(t, fmt.Sprintf("%s round %d", pk.name, round), bp)
			models++
		}
	}
	t.Logf("%d models", models)
}

// checkLayoutRows compares every row of bp's model with layoutRows' rewrite.
func checkLayoutRows(t *testing.T, what string, bp *builtPhase) {
	t.Helper()
	want := layoutRows(t, what, bp)
	if len(want) != bp.m.NumConstrs() {
		t.Fatalf("%s: the tables account for %d rows, the model has %d", what, len(want), bp.m.NumConstrs())
	}
	for i, row := range want {
		if row == nil {
			t.Fatalf("%s: row %d (%s) is in no table", what, i, bp.m.ConstrName(i))
		}
		seen := map[int]bool{}
		for _, nz := range row {
			if seen[nz.Index] || nz.Value == 0 || math.IsNaN(nz.Value) {
				t.Fatalf("%s: row %d (%s) is not canonical: %v", what, i, bp.m.ConstrName(i), row)
			}
			seen[nz.Index] = true
		}
		if got := storedRow(bp.m, i); !reflect.DeepEqual(got, row) {
			t.Fatalf("%s: row %d (%s) stored as %v, written as %v", what, i, bp.m.ConstrName(i), got, row)
		}
	}
}

// layoutRows rewrites each row of bp's model, by row index, from the layout's
// tables: assignment (5), stability hinges (1), spread hinges (2)(3) and their
// rounding cuts, the buffer envelope (4), capacity (6) and affinity (7).
func layoutRows(t *testing.T, what string, bp *builtPhase) [][]lp.Nonzero {
	t.Helper()
	rows := make([][]lp.Nonzero, bp.m.NumConstrs())
	put := func(i int, row []lp.Nonzero) {
		if i < 0 {
			return
		}
		if i >= len(rows) || rows[i] != nil {
			t.Fatalf("%s: row %d named twice or out of range", what, i)
		}
		rows[i] = row
	}
	// sum is Σ coef·V·n over the groups in scope, in group order.
	sum := func(si int, inScope func(g *group) bool, coef float64) []lp.Nonzero {
		var out []lp.Nonzero
		for gi, g := range bp.groups {
			if v := bp.nVar[gi][si]; v >= 0 && inScope(g) {
				out = append(out, lp.Nonzero{Index: int(v), Value: coef * bp.vval[gi][si]})
			}
		}
		return out
	}
	hinge := func(y mip.Var, terms []lp.Nonzero) []lp.Nonzero {
		return append([]lp.Nonzero{{Index: int(y), Value: 1}}, terms...)
	}

	for gi := range bp.groups {
		var assign []lp.Nonzero
		for si := range bp.specs {
			if v := bp.nVar[gi][si]; v >= 0 {
				assign = append(assign, lp.Nonzero{Index: int(v), Value: 1})
			}
			put(bp.moveRow[gi][si], hinge(bp.moveVar[gi][si], []lp.Nonzero{{Index: int(bp.nVar[gi][si]), Value: 1}}))
		}
		put(bp.assignRow[gi], assign)
	}
	for si := range bp.specs {
		s, sp := &bp.specs[si], &bp.sp[si]
		spread := func(keys, rowsOf, cutsOf []int, vars []mip.Var, key func(g *group) int, alpha float64) {
			for k, kv := range keys {
				if k >= len(rowsOf) || rowsOf[k] < 0 {
					continue
				}
				inScope := func(g *group) bool { return key(g) == kv }
				put(rowsOf[k], hinge(vars[k], sum(si, inScope, -1)))
				if cutsOf[k] >= 0 {
					slope := bp.cutSlope(s, alpha, s.res.RRUs)
					cut := sum(si, inScope, 0)
					for j := range cut {
						cut[j].Value = -slope
					}
					put(cutsOf[k], hinge(vars[k], cut))
				}
			}
		}
		spread(bp.msbs, sp.spreadRow, sp.spreadCut, sp.spreadVar, func(g *group) int { return g.msb }, s.alphaF)
		spread(bp.racks, sp.rackRow, sp.rackCut, sp.rackVar, func(g *group) int { return g.rack }, s.alphaK)
		for k, msb := range bp.msbs {
			if k < len(sp.envRow) && sp.envRow[k] >= 0 {
				put(sp.envRow[k], hinge(sp.env, sum(si, func(g *group) bool { return g.msb == msb }, -1)))
			}
		}
		if sp.capRow >= 0 {
			capacity := sum(si, func(*group) bool { return true }, 1)
			if sp.env >= 0 {
				capacity = append(capacity, lp.Nonzero{Index: int(sp.env), Value: -1})
			}
			put(sp.capRow, append(capacity, lp.Nonzero{Index: int(sp.capSlack), Value: 1}))
		}
		for dc, pair := range sp.affRow {
			inDC := func(g *group) bool { return g.dc == dc }
			for side, sign := range [2]float64{-1, 1} {
				if pair[side] >= 0 {
					put(pair[side], append(sum(si, inDC, 1), lp.Nonzero{Index: int(sp.affSlack[dc]), Value: sign}))
				}
			}
		}
	}
	return rows
}

// storedRow reads row i as the model's lp.Problem stored it. Nothing in the
// solver reads a row back, so mip exports neither its problem nor its rows;
// the test reads the unexported fields.
func storedRow(m *mip.Model, i int) []lp.Nonzero {
	row := reflect.ValueOf(m).Elem().FieldByName("prob").FieldByName("rows").Index(i)
	out := make([]lp.Nonzero, row.Len())
	for k := range out {
		nz := row.Index(k)
		out[k] = lp.Nonzero{Index: int(nz.Field(0).Int()), Value: nz.Field(1).Float()}
	}
	return out
}
