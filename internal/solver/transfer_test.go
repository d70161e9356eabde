package solver

import (
	"context"
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"ras/internal/broker"
	"ras/internal/hardware"
	"ras/internal/lp"
	"ras/internal/mip"
	"ras/internal/reservation"
	"ras/internal/topology"
)

// applyOp is one mutation of the fuzz target's stream, spelled out by three
// bytes: the mutator's own moves (fail, revive, resize — to zero now and
// then — container churn, rebinding, flash wear) plus reservation deletes and
// creates, each aimed by the bytes instead of the mutator's rng.
func (m *mutator) applyOp(op, a, b byte) {
	m.now++
	id := topology.ServerID(int(a) % len(m.region.Servers))
	res := m.live[int(b)%len(m.live)]
	switch op % 8 {
	case 0:
		m.b.SetUnavailable(id, broker.RandomFailure, m.now, m.now+1000)
	case 1:
		m.b.ClearUnavailable(id, m.now)
	case 2:
		rrus := 2 + float64(a%12)
		if a%8 == 0 {
			rrus = 0
		}
		_ = m.st.Resize(res, rrus)
	case 3:
		if m.b.State(id).Containers > 0 {
			m.b.SetContainers(id, 0)
		} else {
			m.b.SetContainers(id, 2)
		}
	case 4:
		m.b.SetCurrent(id, res) // into another group, maybe a new one, maybe emptying its own
	case 5:
		m.b.SetFlashWear(id, float64(b)/255)
	case 6:
		if len(m.live) > 2 {
			k := int(b) % len(m.live)
			_ = m.st.Delete(m.live[k])
			m.live = append(m.live[:k], m.live[k+1:]...)
		}
	case 7:
		r := m.reservationOfKind(int(b))
		r.Name = "grown"
		if id, err := m.st.Create(r); err == nil {
			m.live = append(m.live, id)
		}
	}
}

var groupIndex = regexp.MustCompile(`\[g(\d+)`)

// identity names a column (row < 0) or a row (v < 0) of p's model by what it
// is: the model's own name for it, with the group index — a position, which
// differs from model to model — replaced by the group's key.
func (p *builtPhase) identity(v mip.Var, row int) string {
	name := "row " + p.m.ConstrName(max(row, 0))
	if row < 0 {
		name = "col " + p.m.VarName(v)
	}
	return groupIndex.ReplaceAllStringFunc(name, func(s string) string {
		gi, _ := strconv.Atoi(s[2:])
		return fmt.Sprintf("[%+v", p.groups[gi].key)
	})
}

// rootOf solves bp's model just far enough to read its root relaxation: the
// root LP (from start when given), the root heuristics and one node.
func rootOf(bp *builtPhase, start *lp.Basis) mip.Result {
	return bp.m.Solve(context.Background(), mip.Options{MaxNodes: 1, Workers: 1, RootBasis: start})
}

// rootOutcome names how r's root LP ended: solved to optimality, or not and
// what the search made of that.
func rootOutcome(r mip.Result) string {
	if !math.IsInf(r.RootObjective, -1) {
		return "an optimal root LP"
	}
	return "an unsolved root LP (" + r.Status.String() + ")"
}

// FuzzBasisTransfer is the cross-round transfer's property, for any mutation
// stream: build a model, solve its root, mutate the world, rebuild, carry the
// basis over by identity — the root LP from the carried basis reaches the
// cold root's objective, and either completes warm or names why it fell back.
// rack selects the rack-level model, where a rebinding flips move hinges
// without touching a group and the count-based spec's spread hinges carry
// rounding cuts, rows whose coefficients a resize changes.
func FuzzBasisTransfer(f *testing.F) {
	f.Add(false, []byte{0, 7, 0, 0, 9, 0, 1, 7, 0})                                   // fail two servers, revive one
	f.Add(false, []byte{4, 1, 2, 4, 2, 3, 4, 4, 1})                                   // rebind servers: new groups, shrunken ones
	f.Add(false, []byte{4, 1, 0, 4, 7, 0, 4, 13, 0, 4, 19, 0, 4, 25, 0, 4, 31, 0})    // drain groups into one reservation
	f.Add(true, []byte{4, 0, 1, 4, 2, 1, 4, 4, 2, 3, 6, 0})                           // rack level: hinge flips
	f.Add(false, []byte{2, 5, 0, 2, 8, 1, 2, 3, 2})                                   // resizes, one to zero
	f.Add(false, []byte{6, 0, 1, 7, 0, 3, 7, 0, 1})                                   // delete and create reservations
	f.Add(true, []byte{0, 3, 0, 5, 10, 200, 3, 12, 0, 7, 0, 4, 4, 40, 5, 1, 3, 0})    // a bit of everything
	f.Add(false, []byte{5, 0, 255, 5, 5, 128, 5, 10, 10, 3, 4, 0, 3, 8, 0, 0, 20, 0}) // wear buckets and container churn
	f.Add(true, []byte{2, 5, 3, 0, 11, 0})                                            // rack level: the count-based spec resized, its cut rows change slope
	f.Add(true, []byte{2, 4, 3, 4, 6, 3, 4, 8, 3})                                    // rack level: resized to an integral α·C, its rack cuts go

	region := testRegion(f, 2, 2, 3, 5, 43)
	f.Fuzz(func(t *testing.T, rack bool, ops []byte) {
		if len(ops) > 96 {
			ops = ops[:96]
		}
		m := newMutator(t, region, 44, 5)
		cfg := fastCfg()
		cfg.SharedBufferFraction = 0.05
		cfg = cfg.withDefaults(region)
		build := func() *builtPhase {
			in := m.input()
			var st PhaseStats
			return buildPhase(in, cfg, buildSpecs(in, cfg), usableServers(in), fixtureTargets(in.States, rack), rack, &st)
		}

		old := build()
		before := rootOf(old, nil)
		if before.RootBasis == nil {
			t.Skip("the first model's root kept no basis")
		}
		for i := 0; i+2 < len(ops); i += 3 {
			m.applyOp(ops[i], ops[i+1], ops[i+2])
		}
		bp := build()
		carried, kept := bp.carryBasis(&old.layoutIndex, before.RootBasis)
		if carried.NumCols() != bp.m.NumVars() || carried.NumRows() != bp.m.NumConstrs() {
			t.Fatalf("carried basis is %d×%d, the model %d×%d", carried.NumCols(), carried.NumRows(), bp.m.NumVars(), bp.m.NumConstrs())
		}
		if kept < 0 || kept > before.RootBasis.NumCols() || kept > bp.m.NumVars() {
			t.Fatalf("kept %d of %d columns in a %d-column model", kept, before.RootBasis.NumCols(), bp.m.NumVars())
		}

		cold := rootOf(bp, nil)
		warm := rootOf(bp, carried)
		if !warm.RootWarm && warm.RootCold == lp.ColdNone {
			t.Fatal("the root neither completed from the carried basis nor names a cold reason")
		}
		// The root LP's outcome and optimum, not the status after the one
		// node: that also depends on the incumbent the root heuristics find
		// from whichever optimal vertex the LP stopped at.
		if w, c := rootOutcome(warm), rootOutcome(cold); w != c {
			t.Fatalf("%s from the carried basis, %s cold", w, c)
		}
		if math.IsInf(cold.RootObjective, -1) {
			return
		}
		if d := math.Abs(warm.RootObjective - cold.RootObjective); d > 1e-6*(1+math.Abs(cold.RootObjective)) {
			t.Fatalf("root objective %.9g from the carried basis, %.9g cold (kept %d of %d, warm=%v cold reason %v)",
				warm.RootObjective, cold.RootObjective, kept, before.RootBasis.NumCols(), warm.RootWarm, warm.RootCold)
		}
	})
}

// TestCarryBasisStatuses builds two small worlds by hand — in the second, one
// symmetry group has emptied and another has appeared — and checks the carried
// statuses entry by entry: what both models have keeps its status, the new
// group's count column sits at the bound its servers put it on, its rows are
// covered by their slacks, and the emptied group's entries are gone. At rack
// level "web" is resized as well: its MSB hinges gain rounding cuts (α·C goes
// from 3 to 3.75), new rows, while "feed" keeps its own.
func TestCarryBasisStatuses(t *testing.T) {
	for _, rack := range []bool{false, true} {
		t.Run(fmt.Sprintf("rack=%v", rack), func(t *testing.T) { carryBasisStatuses(t, rack) })
	}
}

func carryBasisStatuses(t *testing.T, rack bool) {
	region := testRegion(t, 1, 2, 2, 3, 5)
	rsvs := []reservation.Reservation{
		{ID: 0, Name: "web", Class: hardware.Web, RRUs: 4, CountBased: true, Policy: reservation.DefaultPolicy()},
		{ID: 1, Name: "feed", Class: hardware.Feed1, RRUs: 3, CountBased: true, Policy: reservation.DefaultPolicy()},
	}
	cfg := fastCfg().withDefaults(region)
	b := broker.New(region)
	// Everything starts in "web"; server 0 alone is in use, a group of one.
	for i := range region.Servers {
		b.SetCurrent(topology.ServerID(i), 0)
	}
	b.SetContainers(0, 2)
	build := func() *builtPhase {
		in := Input{Region: region, Reservations: rsvs, States: b.Snapshot()}
		var st PhaseStats
		return buildPhase(in, cfg, buildSpecs(in, cfg), usableServers(in), fixtureTargets(in.States, rack), rack, &st)
	}
	old := build()
	// Server 0 stops its containers and joins "feed": its in-use group
	// empties, and an idle group bound to "feed" appears.
	b.SetContainers(0, 0)
	b.SetCurrent(0, 1)
	if rack {
		rsvs[0].RRUs = 5
	}
	bp := build()
	if rack && (old.cutRows == 0 || bp.cutRows <= old.cutRows) {
		t.Fatalf("%d cut rows before the resize, %d after: the fixture lost its point", old.cutRows, bp.cutRows)
	}

	names := func(p *builtPhase) (cols, rows map[string]int) {
		cols, rows = map[string]int{}, map[string]int{}
		for j := 0; j < p.m.NumVars(); j++ {
			cols[p.identity(mip.Var(j), -1)] = j
		}
		for i := 0; i < p.m.NumConstrs(); i++ {
			rows[p.identity(-1, i)] = i
		}
		return cols, rows
	}
	oldCols, oldRows := names(old)
	newCols, newRows := names(bp)
	if len(oldCols) != old.m.NumVars() || len(newRows) != bp.m.NumConstrs() {
		t.Fatal("identities are not unique within a model")
	}

	// A basis with a recognisable status on every entry: columns cycle
	// through the three, rows alternate.
	start := lp.NewBasis(old.m.NumVars(), old.m.NumConstrs())
	for j := 0; j < old.m.NumVars(); j++ {
		start.SetCol(j, lp.BasisStatus(j%3))
	}
	for i := 0; i < old.m.NumConstrs(); i++ {
		start.SetRow(i, []lp.BasisStatus{lp.Basic, lp.AtLower}[i%2])
	}
	carried, kept := bp.carryBasis(&old.layoutIndex, start)

	survivors, arrivals := 0, 0
	for id, j := range newCols {
		oj, ok := oldCols[id]
		switch {
		case ok:
			survivors++
			if got, want := carried.Col(j), start.Col(oj); got != want {
				t.Errorf("column %s: status %v, was %v", id, got, want)
			}
		case strings.HasPrefix(id, "col n[") && bp.initX[j] > 0:
			arrivals++
			if got := carried.Col(j); got != lp.AtUpper {
				t.Errorf("new column %s holds %v servers of %v: status %v, want at-upper", id, bp.initX[j], bp.initX[j], got)
			}
		default:
			arrivals++
			if got := carried.Col(j); got != lp.AtLower {
				t.Errorf("new column %s: status %v, want at-lower", id, got)
			}
		}
	}
	for id, i := range newRows {
		if oi, ok := oldRows[id]; ok {
			if got, want := carried.Row(i), start.Row(oi); got != want {
				t.Errorf("row %s: status %v, was %v", id, got, want)
			}
		} else if got := carried.Row(i); got != lp.Basic {
			t.Errorf("new row %s: status %v, want basic (covered by its slack)", id, got)
		}
	}
	if kept != survivors {
		t.Errorf("kept = %d, but %d columns exist in both models", kept, survivors)
	}
	gone := 0
	for id := range oldCols {
		if _, ok := newCols[id]; !ok {
			gone++
		}
	}
	if arrivals == 0 || gone == 0 || survivors == 0 {
		t.Fatalf("fixture lost its point: %d columns arrived, %d went, %d stayed", arrivals, gone, survivors)
	}
}
