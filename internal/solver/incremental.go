// Incremental model build: the solver caches each phase's fully built MIP
// together with the bookkeeping needed to patch it in place when the next
// round's input differs only in ways that keep the model's structure — dead
// or revived servers moving between existing symmetry groups and resized
// demands C_r. Construction is split in two: layout fixes the model's shape,
// and three fill functions write every bound, right-hand side and warm-start
// value. A cold build is layout + fill of everything; a patch re-buckets the
// changed servers and runs the same fill functions over what they touched.
// Any structural drift — a reservation created or deleted, a symmetry group
// appearing or emptying, a move hinge appearing or vanishing, a resize that
// moves a rounding cut's slope — falls back to a cold rebuild and says why
// (RebuildReason).
package solver

import (
	"fmt"
	"math"
	"slices"

	"ras/internal/broker"
	"ras/internal/clock"
	"ras/internal/floats"
	"ras/internal/hardware"
	"ras/internal/lp"
	"ras/internal/mip"
	"ras/internal/reservation"
	"ras/internal/topology"
)

// Delta describes what changed in a round's inputs relative to the snapshot
// an earlier round solved, letting the solver patch its cached phase models
// instead of rebuilding them. Callers assemble it from the snapshot version
// they last solved and the reservation store's ChangesSince log; the patch
// finds the changed servers itself, by comparing each server's model inputs
// with what the cache recorded.
type Delta struct {
	// Since is the broker snapshot version the cached round solved
	// (Input.StatesVersion of that round). The patch path engages only when
	// it matches the cache.
	Since uint64
	// Servers may list the servers whose broker state changed since Since
	// (broker.ChangedSince). The solver never reads it.
	Servers []topology.ServerID
	// Reservations are the capacity requests logged since the cached round.
	// Creates and deletes change the spec list itself and force a rebuild;
	// resizes arrive as RHS updates.
	Reservations []reservation.Request
}

// structural reports whether the delta is known to break model structure
// without attempting a patch: reservation creates and deletes change the
// spec list itself.
func (d *Delta) structural() bool {
	for i := range d.Reservations {
		if d.Reservations[i].Kind != reservation.Resize {
			return true
		}
	}
	return false
}

// RebuildReason says why a round that carried a Delta rebuilt a phase's model
// instead of patching the cached one.
type RebuildReason uint8

// Rebuild reasons. RebuildNone means the model was patched, or the round
// carried no Delta and so never asked for a patch. RebuildNoCache is a patch
// miss — there was nothing to patch; every later reason is a fallback: a
// cache and a delta were there, and the delta broke the model's structure.
const (
	RebuildNone           RebuildReason = iota
	RebuildNoCache                      // no cached model of the snapshot Delta.Since names: first round or unversioned input
	RebuildReservationSet               // the delta creates or deletes a reservation
	RebuildConfig                       // solver config or region differs
	RebuildScope                        // the server count or Input.Subset differs
	RebuildSpecCount                    // the spec list changed length (a buffer spec or phase-2 member came or went)
	RebuildSpecShape                    // a spec changed in more than its RRUs
	RebuildSpecActivation               // a spec's demand crossed zero
	RebuildCacheCorrupt                 // the cache lost track of a pooled server (a bug, survived by rebuilding)
	RebuildNewGroup                     // a server needs a symmetry group the model lacks
	RebuildEmptyGroup                   // a symmetry group lost its last server
	RebuildHinge                        // a move hinge appeared or vanished (a cell's X crossed zero)
	RebuildCutSlope                     // a resize moved the slope of a spec's rounding cuts, which is a row coefficient
	NumRebuildReasons                   // array size for per-reason tallies
)

var rebuildReasonNames = [NumRebuildReasons]string{
	"none", "no-cache", "reservation-set", "config", "scope", "spec-count", "spec-shape",
	"spec-activation", "cache-corrupt", "new-group", "empty-group", "hinge", "cut-slope",
}

func (r RebuildReason) String() string {
	if r < NumRebuildReasons {
		return rebuildReasonNames[r]
	}
	return fmt.Sprintf("RebuildReason(%d)", uint8(r))
}

// groupKey identifies one symmetry equivalence class (see groupServers).
type groupKey struct {
	typeIdx int
	scope   int // MSB or rack index
	cur     reservation.ID
	inUse   bool
	wear    int // wear bucket; 0 unless wear-aware placement is on
}

// serverKey computes the symmetry-class key of one server, mirroring the
// grouping pass of groupServers exactly.
func serverKey(in Input, id topology.ServerID, rackLevel, wearAware bool) groupKey {
	srv := &in.Region.Servers[id]
	st := &in.States[id]
	scope := srv.MSB
	if rackLevel {
		scope = srv.Rack
	}
	k := groupKey{typeIdx: srv.Type, scope: scope, cur: st.Current, inUse: st.MovePreempts()}
	if wearAware && in.Region.Catalog.Type(srv.Type).FlashTB > 0 {
		k.wear = wearBucket(st.FlashWear)
	}
	return k
}

// holds reports whether a server of g's type and scope in state st still
// keys into g: whether the dynamic half of its group key — Current, in-use
// and, when wear-aware, the wear bucket — matches g's. The static half
// (type, MSB or rack) is fixed for a server's life.
func (g *group) holds(st *broker.ServerState, wearAware bool, cat *hardware.Catalog) bool {
	k := &g.key
	if k.cur != st.Current || k.inUse != st.MovePreempts() {
		return false
	}
	return !wearAware || k.wear == wearBucket(st.FlashWear) || (k.wear == 0 && cat.Type(k.typeIdx).FlashTB <= 0)
}

// specRows records where one spec's rows and auxiliary variables landed in
// the model, so the fill functions can write exactly them. Absent entries
// are -1.
type specRows struct {
	// active means the spec got constraint rows (cr > 0 and serviceable).
	active bool
	// unserviceable means cr > 0 but no usable server can serve the spec.
	unserviceable bool
	unservMsg     string

	env       mip.Var // envelope z (expression 4/6); -1 for buffer specs
	envRow    []int   // by position in msbs: the row z ≥ that MSB's sum; -1 where the MSB has no terms
	capRow    int
	capSlack  mip.Var
	spreadRow []int // by position in msbs; -1 where the MSB has no terms
	spreadVar []mip.Var
	spreadCut []int // the hinge's rounding cut (roundingCut); -1 where there is none
	rackRow   []int // by position in racks (rack level only)
	rackVar   []mip.Var
	rackCut   []int
	affRow    [][2]int  // by DC: {aff-hi row, aff-lo row}; {-1,-1} absent
	affSlack  []mip.Var // by DC; -1 absent
}

// builtPhase is one phase's cached model: the mip.Model plus every piece of
// bookkeeping needed to (a) run the MIP step, (b) patch the model in place
// for a compatible next-round input, and (c) prove the patch kept it
// identical to a cold rebuild. It is single-flight state: one solve at a
// time may read or mutate it.
type builtPhase struct {
	m *mip.Model

	region    *topology.Region
	rackLevel bool
	cfg       Config
	nDCs      int

	// statesVersion is the broker snapshot version this model reflects.
	statesVersion uint64

	specs    []resSpec // copy; RRUs tracked through patches
	specByID map[reservation.ID][]int

	groups   []*group
	groupIdx map[groupKey]int

	vval      [][]float64 // V_{g,s}
	initCount [][]float64 // X_{g,s}, kept current through patches
	initX     []float64   // warm-start point, parallel to model variables
	solved    [][]float64 // the last solve's counts (solvedCounts), rows over one backing array

	nVar      [][]mip.Var
	assignRow []int
	moveVar   [][]mip.Var
	moveRow   [][]int

	sp      []specRows
	msbs    []int
	racks   []int
	msbIdx  map[int]int
	rackIdx map[int]int

	assignVars int
	cutRows    int // rounding-cut rows laid out next to spread hinges

	// Per-server bookkeeping (indexed by ServerID over the whole region):
	// with the group keys, everything of a server the model reads.
	curRef      []reservation.ID // Current in phase 1, targets at rack level
	inPool      []bool
	serverGroup []int32 // group index; -1 outside the pool
	countSpec   []int32 // spec index the server's initCount charge went to; -1 none
	subset      []topology.ServerID
}

// solvedCounts rounds the group counts of the solution x into bp.solved —
// solved[g][s] is group g's server count for spec s — and returns it. The
// matrix is refilled by the next solve of this model, so it is for the
// current round only, like the initCount fallback realize reads otherwise.
func (bp *builtPhase) solvedCounts(x []float64) [][]float64 {
	nG, nS := len(bp.groups), len(bp.specs)
	if len(bp.solved) != nG || (nG > 0 && len(bp.solved[0]) != nS) {
		flat := make([]float64, nG*nS)
		bp.solved = make([][]float64, nG)
		for gi := range bp.solved {
			bp.solved[gi] = flat[gi*nS : (gi+1)*nS : (gi+1)*nS]
		}
	}
	for gi, row := range bp.solved {
		for si := range row {
			row[si] = 0
			if v := bp.nVar[gi][si]; v >= 0 {
				row[si] = math.Round(x[v])
			}
		}
	}
	return bp.solved
}

// buildPhase runs the cold path: grouping, initial state, then the MIP as
// layout (every column, row, coefficient, name and cost, with placeholder
// bounds and right-hand sides) followed by the fill functions over every
// group, cell and spec — the same three functions patch runs over what a
// delta touched.
func buildPhase(in Input, cfg Config, specs []resSpec, pool []topology.ServerID,
	targets []reservation.ID, rackLevel bool, stats *PhaseStats) *builtPhase {

	// ---------------- RAS build: grouping & constants. -------------------
	t0 := clock.Now()
	groups, groupIdx := groupServers(in, pool, rackLevel, cfg.WearPenalty > 0)
	cat := in.Region.Catalog
	nG, nS := len(groups), len(specs)

	// Per-(group, spec) RRU values, eligibility, and variable names.
	vval := make([][]float64, nG)
	names := make([][]string, nG)
	for gi, g := range groups {
		row := make([]float64, nS)
		nrow := make([]string, nS)
		for si := range specs {
			s := &specs[si]
			v := s.res.ValueAt(cat, g.key.typeIdx, g.dc)
			row[si] = v
			if v > 0 {
				nrow[si] = fmt.Sprintf("n[g%d,%s]", gi, s.res.Name)
			}
		}
		vval[gi] = row
		names[gi] = nrow
	}
	stats.RASBuild = clock.Since(t0)

	// ---------------- Initial state. -------------------------------------
	t0 = clock.Now()
	n := len(in.States)
	// Initial count X[g][s]: servers of g currently in spec s. The "current"
	// reference is the broker's Current in phase 1 and the phase-1 target in
	// phase 2, so phase 2 warm-starts from the phase-1 solution.
	specByID := make(map[reservation.ID][]int, nS)
	for si := range specs {
		specByID[specs[si].res.ID] = append(specByID[specs[si].res.ID], si)
	}
	curRef := make([]reservation.ID, n)
	for i := range curRef {
		if rackLevel {
			curRef[i] = targets[i]
		} else {
			curRef[i] = in.States[i].Current
		}
	}
	initCount := make([][]float64, nG)
	serverGroup := make([]int32, n)
	countSpec := make([]int32, n)
	for i := range serverGroup {
		serverGroup[i] = -1
		countSpec[i] = -1
	}
	for gi, g := range groups {
		row := make([]float64, nS)
		for _, id := range g.servers {
			serverGroup[id] = int32(gi)
			// Buffer specs share an ID; pick the one matching the type.
			for _, si := range specByID[curRef[id]] {
				if vval[gi][si] > 0 {
					row[si]++
					countSpec[id] = int32(si)
					break
				}
			}
		}
		initCount[gi] = row
	}
	stats.InitialState = clock.Since(t0)

	// ---------------- Solver build: the MIP. ------------------------------
	t0 = clock.Now()
	bp := &builtPhase{
		m:         mip.NewModel(),
		region:    in.Region,
		rackLevel: rackLevel,
		cfg:       cfg,
		nDCs:      in.Region.NumDCs,
		specs:     append([]resSpec(nil), specs...),
		specByID:  specByID,
		groups:    groups,
		groupIdx:  groupIdx,
		vval:      vval,
		initCount: initCount,

		curRef:      curRef,
		serverGroup: serverGroup,
		countSpec:   countSpec,
		subset:      append([]topology.ServerID(nil), in.Subset...),
	}
	bp.inPool = make([]bool, n)
	for _, id := range pool {
		bp.inPool[id] = true
	}
	bp.layout(names)
	for gi := range bp.groups {
		bp.fillGroup(gi)
		for si := range bp.specs {
			if bp.nVar[gi][si] >= 0 {
				bp.fillCell(gi, si)
			}
		}
	}
	for si := range bp.specs {
		if bp.sp[si].active {
			bp.fillSpec(si)
		}
	}
	bp.m.SetInitial(bp.initX)
	stats.SolverBuild = clock.Since(t0)
	return bp
}

// layout adds every column and row of the phase's MIP and records where each
// landed. It fixes the model's shape — which variables and rows exist, their
// coefficients, names and costs — and nothing else: every bound, right-hand
// side and warm-start value that depends on group sizes, initial counts or
// demands is a zero placeholder here and is written by the fill functions.
// What shape does depend on is which cells are eligible (vval > 0), which
// have servers today (a move hinge exists iff X > 0), which specs are active
// (C_r > 0 and some eligible server) and, at rack level, the fractional part
// of α·C_r for count-based specs (roundingCut) — exactly what patch treats as
// structural drift.
func (bp *builtPhase) layout(names [][]string) {
	m, cfg, groups, specs := bp.m, bp.cfg, bp.groups, bp.specs
	cat := bp.region.Catalog
	nG, nS := len(groups), len(specs)

	// Count variables n_{g,s}, (5) assignment Σ_s n_{g,s} ≤ |g|, and
	// (1) stability: cost M · max(0, X − n) per cell with X > 0.
	bp.nVar = make([][]mip.Var, nG) // -1 if absent
	bp.moveVar = make([][]mip.Var, nG)
	bp.moveRow = make([][]int, nG)
	for gi, g := range groups {
		bp.nVar[gi] = make([]mip.Var, nS)
		bp.moveVar[gi] = make([]mip.Var, nS)
		bp.moveRow[gi] = make([]int, nS)
		for si := range specs {
			bp.nVar[gi][si], bp.moveVar[gi][si], bp.moveRow[gi][si] = -1, -1, -1
			if bp.vval[gi][si] <= 0 {
				continue
			}
			// IO-aware placement (§5.2): worn flash assigned to a
			// flash-consuming reservation carries a per-server cost.
			wearCost := 0.0
			if cfg.WearPenalty > 0 && g.key.wear > 0 && cat.Type(g.key.typeIdx).FlashTB > 0 && !specs[si].isBuffer {
				wearCost = cfg.WearPenalty * float64(g.key.wear)
			}
			bp.nVar[gi][si] = m.AddIntVar(names[gi][si], wearCost, 0, 0)
			bp.assignVars++
		}
	}
	bp.assignRow = make([]int, nG)
	for gi := range groups {
		bp.assignRow[gi] = -1
		var terms []mip.Term
		for si := range specs {
			if bp.nVar[gi][si] >= 0 {
				terms = append(terms, mip.Term{Var: bp.nVar[gi][si], Coef: 1})
			}
		}
		if terms != nil {
			bp.assignRow[gi] = m.AddConstr(fmt.Sprintf("assign[g%d]", gi), terms, mip.LE, 0)
		}
	}
	for gi, g := range groups {
		mcost := cfg.moveCost(g.key.inUse)
		for si := range specs {
			if bp.initCount[gi][si] <= 0 || bp.nVar[gi][si] < 0 {
				continue
			}
			bp.moveVar[gi][si], bp.moveRow[gi][si] = m.AddPosPart(fmt.Sprintf("move[g%d,s%d]", gi, si),
				[]mip.Term{{Var: bp.nVar[gi][si], Coef: -1}}, 0, mcost)
		}
	}

	// Scopes the per-spec rows sum over: MSBs, racks (phase 2), DCs, all.
	msbGroups := make(map[int][]int, 64) // msb → group indices
	rackGroups := make(map[int][]int, 256)
	dcGroups := make(map[int][]int, 8)
	all := make([]int, nG)
	for gi, g := range groups {
		msbGroups[g.msb] = append(msbGroups[g.msb], gi)
		if bp.rackLevel {
			rackGroups[g.rack] = append(rackGroups[g.rack], gi)
		}
		dcGroups[g.dc] = append(dcGroups[g.dc], gi)
		all[gi] = gi
	}
	bp.msbs = sortedKeys(msbGroups)
	bp.racks = sortedKeys(rackGroups)
	bp.msbIdx = make(map[int]int, len(bp.msbs))
	for k, msb := range bp.msbs {
		bp.msbIdx[msb] = k
	}
	bp.rackIdx = make(map[int]int, len(bp.racks))
	for k, rk := range bp.racks {
		bp.rackIdx[rk] = k
	}

	bp.sp = make([]specRows, nS)
	for si := range specs {
		s := &specs[si]
		sp := &bp.sp[si]
		*sp = specRows{env: -1, capRow: -1, capSlack: -1}
		if s.res.RRUs <= 0 {
			continue
		}
		sumTerms := func(gis []int) []mip.Term {
			var terms []mip.Term
			for _, gi := range gis {
				if bp.nVar[gi][si] >= 0 {
					terms = append(terms, mip.Term{Var: bp.nVar[gi][si], Coef: bp.vval[gi][si]})
				}
			}
			return terms
		}
		// spreadRows lays out β · max(0, Σ_scope − α·C) for each scope key
		// that has terms; absent scopes get -1. In the rack-level model a
		// count-based spec's hinge is followed by its rounding cut, whose
		// slope — a coefficient, so part of the shape — comes from the demand
		// the model is laid out for.
		spreadRows := func(format string, keys []int, byKey map[int][]int, alpha float64) (rows []int, vars []mip.Var, cuts []int) {
			slope := bp.cutSlope(s, alpha, s.res.RRUs)
			rows, vars, cuts = make([]int, len(keys)), make([]mip.Var, len(keys)), make([]int, len(keys))
			for k, key := range keys {
				rows[k], vars[k], cuts[k] = -1, -1, -1
				terms := sumTerms(byKey[key])
				if terms == nil {
					continue
				}
				vars[k], rows[k] = m.AddPosPart(fmt.Sprintf(format, si, key), terms, 0, cfg.Beta)
				if slope > 0 {
					row := append(make([]mip.Term, 0, len(terms)+1), mip.Term{Var: vars[k], Coef: 1})
					for _, t := range terms {
						row = append(row, mip.Term{Var: t.Var, Coef: -slope})
					}
					cuts[k] = m.AddConstr("cut/"+fmt.Sprintf(format, si, key), row, mip.GE, 0)
					bp.cutRows++
				}
			}
			return rows, vars, cuts
		}

		capTerms := sumTerms(all)
		if capTerms == nil {
			// Nothing in the region can serve this request: report the
			// rejection instead of silently dropping the constraint.
			sp.unserviceable = true
			sp.unservMsg = fmt.Sprintf("%s: no usable eligible server (class %v, %d eligible types, singleDC %d)",
				s.res.Name, s.res.Class, len(s.res.EligibleTypes), s.res.Policy.SingleDC)
			continue
		}
		sp.active = true

		// Shared-buffer specs skip the embedded buffer (they *are* buffer).
		if !s.isBuffer {
			// (4)+(6): envelope z ≥ per-MSB sum, cost τ; capacity row uses z.
			var perMSB [][]mip.Term
			var envKeys []int // the bp.msbs index of each perMSB group
			sp.envRow = make([]int, len(bp.msbs))
			for k, msb := range bp.msbs {
				sp.envRow[k] = -1
				if terms := sumTerms(msbGroups[msb]); terms != nil {
					perMSB = append(perMSB, terms)
					envKeys = append(envKeys, k)
				}
			}
			if perMSB != nil {
				var rows []int
				sp.env, rows = m.AddUpperEnvelope(fmt.Sprintf("maxmsb[s%d]", si), perMSB, cfg.Tau)
				for g, k := range envKeys {
					sp.envRow[k] = rows[g]
				}
				capTerms = append(capTerms, mip.Term{Var: sp.env, Coef: -1})
			}
			// (3) MSB spread, and (2) rack spread in phase 2 only.
			sp.spreadRow, sp.spreadVar, sp.spreadCut = spreadRows("spreadF[s%d,m%d]", bp.msbs, msbGroups, s.alphaF)
			if bp.rackLevel {
				sp.rackRow, sp.rackVar, sp.rackCut = spreadRows("spreadK[s%d,r%d]", bp.racks, rackGroups, s.alphaK)
			}
		}

		// (6) capacity with embedded buffer, softened: Σ V·n − z + slack ≥ C.
		// The slack is always present (fill bounds it to the initial
		// violation, so a clean incumbent pins it to [0,0]); keeping the
		// column in place is what lets a patch re-open it when a delta breaks
		// the capacity.
		sp.capSlack = m.AddVar(fmt.Sprintf("capslack[s%d]", si), cfg.SoftPenalty, 0, 0)
		m.MarkPenalty(sp.capSlack)
		capTerms = append(capTerms, mip.Term{Var: sp.capSlack, Coef: 1})
		sp.capRow = m.AddConstr(fmt.Sprintf("capacity[s%d]", si), capTerms, mip.GE, 0)

		// (7) network affinity per DC with eligible capacity, softened
		// symmetrically: Σ − slack ≤ hi and Σ + slack ≥ lo.
		if len(s.res.Policy.DCAffinity) > 0 {
			sp.affRow = make([][2]int, bp.nDCs)
			sp.affSlack = make([]mip.Var, bp.nDCs)
			for dc := 0; dc < bp.nDCs; dc++ {
				sp.affRow[dc] = [2]int{-1, -1}
				sp.affSlack[dc] = -1
				terms := sumTerms(dcGroups[dc])
				if terms == nil {
					continue
				}
				sl := m.AddVar(fmt.Sprintf("affslack[s%d,d%d]", si, dc), cfg.SoftPenalty, 0, 0)
				m.MarkPenalty(sl)
				sp.affSlack[dc] = sl
				up := append(append([]mip.Term(nil), terms...), mip.Term{Var: sl, Coef: -1})
				hiRow := m.AddConstr(fmt.Sprintf("aff-hi[s%d,d%d]", si, dc), up, mip.LE, 0)
				dn := append(append([]mip.Term(nil), terms...), mip.Term{Var: sl, Coef: 1})
				loRow := m.AddConstr(fmt.Sprintf("aff-lo[s%d,d%d]", si, dc), dn, mip.GE, 0)
				sp.affRow[dc] = [2]int{hiRow, loRow}
			}
		}
	}
	bp.initX = make([]float64, m.NumVars())
}

// roundingCut is the integer-rounding cut of a hinge y ≥ Σ − t, y ≥ 0 whose
// sum Σ takes only integer values (a count-based spec: V = 1 on every term):
//
//	y ≥ (⌈t⌉ − t)·(Σ − ⌊t⌋)
//
// At Σ ≤ ⌊t⌋ the right side is ≤ 0 ≤ y; at Σ = ⌊t⌋ + k, k ≥ 1, it is
// (1 − f)·k with f = t − ⌊t⌋, and Σ − t = k − f ≥ (1 − f)·k because k ≥ 1. So
// every integer point of the hinge satisfies it, with equality at ⌊t⌋ and
// ⌈t⌉: it is the chord of the hinge's integer hull, takes nothing from the
// MIP and lifts the LP bound to what the integers can reach. It returns the
// slope ⌈t⌉ − t and ⌊t⌋; ok is false when t is integral (to 1e-9) and the
// hinge is its own hull.
func roundingCut(t float64) (slope, floor float64, ok bool) {
	floor = math.Floor(t)
	if t-floor <= 1e-9 || floor+1-t <= 1e-9 {
		return 0, 0, false
	}
	return floor + 1 - t, floor, true
}

// cutSlope is the slope of the rounding cuts on spec s's hinges of threshold
// alpha·rrus, or 0 where the model has none: they belong to the rack-level
// model's count-based user specs with a fractional threshold.
func (bp *builtPhase) cutSlope(s *resSpec, alpha, rrus float64) float64 {
	if !bp.rackLevel || !s.res.CountBased || s.isBuffer {
		return 0
	}
	slope, _, _ := roundingCut(alpha * rrus)
	return slope
}

// cutSlopeMoves reports whether resizing spec si to rrus changes the slope of
// its rounding cuts, or whether it has any. The slope is a row coefficient,
// which no patch can write.
func (bp *builtPhase) cutSlopeMoves(si int, rrus float64) bool {
	s := &bp.specs[si]
	for _, alpha := range [2]float64{s.alphaF, s.alphaK} {
		if !floats.ExactEqual(bp.cutSlope(s, alpha, s.res.RRUs), bp.cutSlope(s, alpha, rrus)) {
			return true
		}
	}
	return false
}

// specKey is a spec's identity across rounds: the reservation it stands for
// and, for the shared-buffer specs that all carry reservation.SharedBuffer,
// the hardware type each one buffers.
type specKey struct {
	id      reservation.ID
	bufType int // -1 for a user reservation
}

func (s *resSpec) key() specKey {
	if s.isBuffer {
		return specKey{s.res.ID, s.res.EligibleTypes[0]}
	}
	return specKey{s.res.ID, -1}
}

// at is xs[k], or -1 when the table has no such position.
func at[T ~int](xs []T, k int) T {
	if k < 0 || k >= len(xs) {
		return -1
	}
	return xs[k]
}

// carryBasis rewrites b — an optimal root basis of the model old laid out —
// onto bp's freshly built model, by identity: the layout tables say what
// every column and row is (a symmetry-group key × a spec for count cells,
// move hinges and assignment rows; a spec × an MSB, rack or DC for envelope,
// spread, capacity and affinity rows and their auxiliaries), and an entry
// both layouts have keeps its status. A column only bp has enters nonbasic at
// the bound the seeded assignment puts it on, a row only bp has is covered by
// its slack, and what only old has is dropped; package lp squares up whatever
// set of Basic columns that leaves. It also reports how many of b's columns
// bp has. For the changes a region-wide phase sees — symmetry groups
// appearing and emptying — the rows that go contain only columns that go, so
// the carried set is again a basis with the old duals, and the root LP is
// left with the bounds and right-hand sides that moved.
func (bp *builtPhase) carryBasis(old *builtPhase, b *lp.Basis) (nb *lp.Basis, kept int) {
	m := bp.m
	nb = lp.NewBasis(m.NumVars(), m.NumConstrs())
	for j, x := range bp.initX {
		if _, up := m.VarBounds(mip.Var(j)); x > 0 && x >= up {
			nb.SetCol(j, lp.AtUpper)
		}
	}
	col := func(to, from mip.Var) {
		if to >= 0 && from >= 0 {
			nb.SetCol(int(to), b.Col(int(from)))
			kept++
		}
	}
	row := func(to, from int) {
		if to >= 0 && from >= 0 {
			nb.SetRow(to, b.Row(from))
		}
	}
	pos := func(idx map[int]int, key int) int {
		if k, ok := idx[key]; ok {
			return k
		}
		return -1
	}

	oldSpec := make(map[specKey]int, len(old.specs))
	for osi := range old.specs {
		oldSpec[old.specs[osi].key()] = osi
	}
	specOf := make([]int, len(bp.specs)) // spec index in old, -1 when new
	for si := range bp.specs {
		specOf[si] = -1
		if osi, ok := oldSpec[bp.specs[si].key()]; ok {
			specOf[si] = osi
		}
	}

	for gi, g := range bp.groups {
		ogi, ok := old.groupIdx[g.key]
		if !ok {
			continue
		}
		row(bp.assignRow[gi], old.assignRow[ogi])
		for si, osi := range specOf {
			if osi >= 0 {
				col(bp.nVar[gi][si], old.nVar[ogi][osi])
				col(bp.moveVar[gi][si], old.moveVar[ogi][osi])
				row(bp.moveRow[gi][si], old.moveRow[ogi][osi])
			}
		}
	}
	for si, osi := range specOf {
		if osi < 0 {
			continue
		}
		sp, osp := &bp.sp[si], &old.sp[osi]
		col(sp.env, osp.env)
		col(sp.capSlack, osp.capSlack)
		row(sp.capRow, osp.capRow)
		for k, msb := range bp.msbs {
			ok := pos(old.msbIdx, msb)
			row(at(sp.envRow, k), at(osp.envRow, ok))
			col(at(sp.spreadVar, k), at(osp.spreadVar, ok))
			row(at(sp.spreadRow, k), at(osp.spreadRow, ok))
			row(at(sp.spreadCut, k), at(osp.spreadCut, ok))
		}
		for k, rk := range bp.racks {
			ok := pos(old.rackIdx, rk)
			col(at(sp.rackVar, k), at(osp.rackVar, ok))
			row(at(sp.rackRow, k), at(osp.rackRow, ok))
			row(at(sp.rackCut, k), at(osp.rackCut, ok))
		}
		for dc := range sp.affRow {
			if dc < len(osp.affRow) {
				col(sp.affSlack[dc], osp.affSlack[dc])
				row(sp.affRow[dc][0], osp.affRow[dc][0])
				row(sp.affRow[dc][1], osp.affRow[dc][1])
			}
		}
	}
	return nb, kept
}

// specCompatible reports whether a cached spec and a fresh one differ at
// most in requested RRUs — the only per-spec change the patch path can
// absorb as an RHS update. Everything else (eligibility, class, policy,
// identity) shapes the model's rows and columns.
func specCompatible(old, cur *resSpec) bool {
	if old.isBuffer != cur.isBuffer {
		return false
	}
	a, b := &old.res, &cur.res
	if a.ID != b.ID || a.Name != b.Name || a.Owner != b.Owner || a.Class != b.Class ||
		a.HostProfile != b.HostProfile || a.Elastic != b.Elastic || a.CountBased != b.CountBased {
		return false
	}
	if len(a.EligibleTypes) != len(b.EligibleTypes) {
		return false
	}
	for i := range a.EligibleTypes {
		if a.EligibleTypes[i] != b.EligibleTypes[i] {
			return false
		}
	}
	p, q := &a.Policy, &b.Policy
	if !floats.ExactEqual(p.SpreadMSB, q.SpreadMSB) || !floats.ExactEqual(p.SpreadRack, q.SpreadRack) ||
		!floats.ExactEqual(p.AffinityTheta, q.AffinityTheta) || p.SingleDC != q.SingleDC {
		return false
	}
	if len(p.DCAffinity) != len(q.DCAffinity) {
		return false
	}
	for dc, f := range p.DCAffinity {
		g, ok := q.DCAffinity[dc]
		if !ok || !floats.ExactEqual(f, g) {
			return false
		}
	}
	return true
}

// patch tries to bring the cached model forward to the given input in
// place: re-bucket the servers whose model inputs changed, detect structural
// drift, and run the fill functions over the groups, cells and specs that
// were touched. Any reason other than RebuildNone means the change set breaks
// structure (the caller then cold-rebuilds and the half-mutated cache is
// discarded). On success the model is bit-for-bit what buildPhase would have
// produced: the change set is derived here, by comparing each server's pool
// membership, count reference and group key with the cache's, and the
// values written come from the same fill functions the cold build runs. A
// server whose write touched nothing else the model reads (UnavailEnd,
// Target, wear within its bucket, one more container on a busy server) keeps
// its place.
func (bp *builtPhase) patch(in Input, cfg Config, specs []resSpec, pool []topology.ServerID,
	targets []reservation.ID) RebuildReason {

	// Structural prechecks: same config, topology, subset, and spec list.
	if cfg != bp.cfg || in.Region != bp.region {
		return RebuildConfig
	}
	if len(in.States) != len(bp.inPool) || !slices.Equal(in.Subset, bp.subset) {
		return RebuildScope
	}
	if len(specs) != len(bp.specs) {
		return RebuildSpecCount
	}
	touchedSpec := make([]bool, len(specs))
	for si := range specs {
		if !specCompatible(&bp.specs[si], &specs[si]) {
			return RebuildSpecShape
		}
		if !floats.ExactEqual(bp.specs[si].res.RRUs, specs[si].res.RRUs) {
			if (specs[si].res.RRUs > 0) != (bp.specs[si].res.RRUs > 0) {
				return RebuildSpecActivation // changes which rows exist
			}
			if bp.cutSlopeMoves(si, specs[si].res.RRUs) {
				return RebuildCutSlope
			}
			bp.specs[si].res.RRUs = specs[si].res.RRUs
			touchedSpec[si] = true
		}
	}

	inPool := make([]bool, len(bp.inPool))
	for _, id := range pool {
		inPool[id] = true
	}

	// Move changed servers between existing groups. A server needing a group
	// that does not exist, or emptying the one it leaves, changes the
	// model's shape — bail to the cold path.
	wearAware := cfg.WearPenalty > 0
	cat := in.Region.Catalog
	groupTouched := make([]bool, len(bp.groups))
	var pairs [][2]int32 // (group, spec) cells whose initCount changed
	for i := range in.States {
		st := &in.States[i]
		newCur := st.Current
		if bp.rackLevel {
			newCur = targets[i]
		}
		// Skip a server when nothing of it the model reads moved.
		if inPool[i] == bp.inPool[i] && newCur == bp.curRef[i] {
			if !inPool[i] {
				continue
			}
			if gi := bp.serverGroup[i]; gi >= 0 && bp.groups[gi].holds(st, wearAware, cat) {
				continue
			}
		}
		id := topology.ServerID(i)
		if bp.inPool[i] {
			gi := int(bp.serverGroup[i])
			if gi < 0 {
				return RebuildCacheCorrupt
			}
			k, ok := slices.BinarySearch(bp.groups[gi].servers, id)
			if !ok {
				return RebuildCacheCorrupt
			}
			bp.groups[gi].servers = slices.Delete(bp.groups[gi].servers, k, k+1)
			if si := bp.countSpec[i]; si >= 0 {
				bp.initCount[gi][si]--
				pairs = append(pairs, [2]int32{int32(gi), si})
			}
			groupTouched[gi] = true
			bp.serverGroup[i] = -1
			bp.countSpec[i] = -1
		}
		if inPool[i] {
			gi, ok := bp.groupIdx[serverKey(in, id, bp.rackLevel, wearAware)]
			if !ok {
				return RebuildNewGroup
			}
			k, _ := slices.BinarySearch(bp.groups[gi].servers, id)
			bp.groups[gi].servers = slices.Insert(bp.groups[gi].servers, k, id)
			bp.serverGroup[i] = int32(gi)
			for _, si := range bp.specByID[newCur] {
				if bp.vval[gi][si] > 0 {
					bp.initCount[gi][si]++
					bp.countSpec[i] = int32(si)
					pairs = append(pairs, [2]int32{int32(gi), int32(si)})
					break
				}
			}
			groupTouched[gi] = true
		}
		bp.curRef[i] = newCur
		bp.inPool[i] = inPool[i]
	}

	for gi, touched := range groupTouched {
		if !touched {
			continue
		}
		if len(bp.groups[gi].servers) == 0 {
			return RebuildEmptyGroup // cold build would drop it
		}
		bp.fillGroup(gi)
	}
	// A hinge appearing (X 0→positive) or vanishing (positive→0) is
	// structural; a cell touched twice is filled twice with the same values.
	for _, p := range pairs {
		gi, si := int(p[0]), int(p[1])
		if (bp.initCount[gi][si] > 0) != (bp.moveVar[gi][si] >= 0) {
			return RebuildHinge
		}
		bp.fillCell(gi, si)
		touchedSpec[si] = true
	}
	for si := range bp.specs {
		if touchedSpec[si] && bp.sp[si].active {
			bp.fillSpec(si)
		}
	}
	bp.m.SetInitial(bp.initX)
	return RebuildNone
}

// The three fill functions below are the only code that writes variable
// bounds, right-hand sides and warm-start values. Each value is derived on
// one line here and nowhere else; buildPhase runs them over everything,
// patch over what a delta touched.

// fillGroup writes what depends on the group's size |g| alone: the upper
// bound of each of its count variables and the assignment row's RHS
// (expression 5).
func (bp *builtPhase) fillGroup(gi int) {
	size := float64(len(bp.groups[gi].servers))
	for _, v := range bp.nVar[gi] {
		if v >= 0 {
			bp.m.SetVarBounds(v, 0, size)
		}
	}
	if r := bp.assignRow[gi]; r >= 0 {
		bp.m.SetRHS(r, size)
	}
}

// fillCell writes what depends on one cell's initial count X_{g,s}: the
// count variable's warm-start value and, where X > 0, the move hinge
// max(0, X − n) of expression 1 — its RHS, and a warm value of zero because
// the warm start keeps all X servers. The cell must have a count variable.
func (bp *builtPhase) fillCell(gi, si int) {
	x0 := bp.initCount[gi][si]
	bp.initX[bp.nVar[gi][si]] = x0
	if r := bp.moveRow[gi][si]; r >= 0 {
		bp.m.SetRHS(r, x0)
		bp.initX[bp.moveVar[gi][si]] = 0
	}
}

// fillSpec writes what depends on one active spec's demand C_r and on its
// initial sums Σ V·X per scope: the envelope's warm value, the MSB- and
// rack-spread hinges (RHS −α·C, expressions 3 and 2), the capacity row (RHS
// C, slack bounded by the initial violation, expression 6) and the per-DC
// affinity rows (a·C ± θ·C, expression 7). Sums accumulate in ascending
// group order — the order of the rows' terms.
func (bp *builtPhase) fillSpec(si int) {
	s := &bp.specs[si]
	sp := &bp.sp[si]
	cr := s.res.RRUs

	initTotal := 0.0
	msum := make([]float64, len(bp.msbs))
	rsum := make([]float64, len(bp.racks))
	dsum := make([]float64, bp.nDCs)
	for gi, g := range bp.groups {
		if bp.nVar[gi][si] < 0 {
			continue
		}
		v := bp.vval[gi][si] * bp.initCount[gi][si]
		initTotal += v
		msum[bp.msbIdx[g.msb]] += v
		if bp.rackLevel {
			rsum[bp.rackIdx[g.rack]] += v
		}
		dsum[g.dc] += v
	}
	// hinges fills one family of β · max(0, Σ_scope − α·C) rows and, where
	// layout put one, the rounding cut of each: y − slope·Σ ≥ −slope·⌊α·C⌋.
	hinges := func(rows, cuts []int, vars []mip.Var, sums []float64, alpha float64) {
		slope, floor, _ := roundingCut(alpha * cr)
		for k, row := range rows {
			if row >= 0 {
				bp.m.SetRHS(row, -alpha*cr)
				bp.initX[vars[k]] = math.Max(0, sums[k]-alpha*cr)
				if cut := cuts[k]; cut >= 0 {
					bp.m.SetRHS(cut, -slope*floor)
				}
			}
		}
	}
	hinges(sp.spreadRow, sp.spreadCut, sp.spreadVar, msum, s.alphaF)
	hinges(sp.rackRow, sp.rackCut, sp.rackVar, rsum, s.alphaK)

	initLHS := initTotal
	if sp.env >= 0 {
		initEnv := 0.0
		for _, v := range msum {
			initEnv = math.Max(initEnv, v)
		}
		bp.initX[sp.env] = initEnv
		initLHS -= initEnv
	}
	violation := math.Max(0, cr-initLHS)
	bp.m.SetRHS(sp.capRow, cr)
	bp.m.SetVarBounds(sp.capSlack, 0, violation)
	bp.initX[sp.capSlack] = violation

	for dc, rows := range sp.affRow {
		if rows[0] < 0 {
			continue
		}
		a := s.res.Policy.DCAffinity[dc]
		hi := a*cr + s.theta*cr
		lo := a*cr - s.theta*cr
		viol := math.Max(math.Max(0, dsum[dc]-hi), math.Max(0, lo-dsum[dc]))
		// "No regress beyond the initial violation" (§3.5.1), plus a
		// two-server allowance for the discrete granularity of count
		// variables: a hard row made purely of integer variables would leave
		// rounding heuristics no room to breathe.
		bp.m.SetVarBounds(sp.affSlack[dc], 0, viol+2)
		bp.initX[sp.affSlack[dc]] = viol
		bp.m.SetRHS(rows[0], hi)
		bp.m.SetRHS(rows[1], lo)
	}
}
