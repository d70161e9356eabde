package mip

// This file holds the solve engine under the branch-and-bound driver
// (pool.go): the per-solve shared state (incumbent, stop flags, node count,
// root bounds) and the per-goroutine search scratch (problem copy, LP
// workspace and its statistics, heuristics). Node order and the heuristic
// schedule are keyed to node counts alone, so Workers=1 results are
// bit-for-bit repeatable.

import (
	"context"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"ras/internal/floats"
	"ras/internal/lp"
)

// engine is the state shared by every search goroutine of one Solve call.
// Its buffers are the Model's (solveState), so a re-solve allocates none of
// them again. All fields set in newEngine are immutable for the duration of
// the solve; the incumbent is guarded by incMu, the node count and stall
// tracking are atomics, and the stop flags are sticky atomics so any
// goroutine can observe an expiry another one detected. LP statistics are not
// shared at all: each search's workspace counts its own and fillStats sums
// them after the join.
type engine struct {
	m    *Model
	opt  Options
	ctx  context.Context
	kept *solveState // m.kept: the storage behind the slices below

	n       int
	rootLo  []float64
	rootUp  []float64
	contMin []float64 // per-row reachable continuous activity, lower side
	contMax []float64 // upper side

	timedOut  atomic.Bool
	cancelled atomic.Bool

	// Shared incumbent, published improve-only under incMu: offer only ever
	// replaces it with a strictly better point, so concurrent readers see a
	// monotonically improving bound and a worker racing a stale snapshot
	// can at worst miss a prune, never corrupt the incumbent.
	incMu      sync.Mutex
	incumbent  []float64 // nil when none; stored in kept.incumbent
	incObj     float64   // +Inf when none
	incUpdates int
	heurWins   int

	// repairs is whether a node completion can still pay: there is no
	// incumbent yet, or it leaves a penalty slack (Model.softened). Set with
	// the incumbent, under incMu.
	repairs atomic.Bool

	nodes atomic.Int64
	// searches lists every search of the solve, the root search first.
	// newSearch appends to it, and only the driver goroutine calls newSearch
	// (before it forks the search's goroutine), so the slice itself needs no
	// lock.
	searches []*search

	// Stall-rule progress tracking: the node count at the last incumbent or
	// bound improvement, and the best bound seen so far (as float bits, -Inf
	// initially). Both are monotone, so stale reads only delay a stall stop.
	lastGain  atomic.Int64
	boundBits atomic.Uint64
	// carry is what the model's last solve left for the stall rule, and
	// stalledAtEntry that this solve resumed it already stalled
	// (resumeStall): the root heuristics and the polish then have nothing to
	// try that the last solve did not.
	carry          stallCarry
	stalledAtEntry bool
}

func newEngine(ctx context.Context, m *Model, opt Options) *engine {
	k := &m.kept
	e := &engine{
		m:      m,
		opt:    opt,
		ctx:    ctx,
		n:      m.prob.NumVars(),
		incObj: math.Inf(1),
		kept:   k,
		carry:  k.stall,
	}
	k.stall = stallCarry{} // a solve that stops early leaves none
	rows := m.prob.NumRows()

	// Save root bounds so the model is unchanged after Solve and so node
	// bound changes have a fixed base to apply against. A continuous column
	// whose bounds differ from the last Solve's invalidates the row ranges
	// below; integer columns never enter them.
	if len(k.rootLo) != e.n || len(k.contMin) != rows {
		k.rootLo, k.rootUp = slices.Grow(k.rootLo[:0], e.n)[:e.n], slices.Grow(k.rootUp[:0], e.n)[:e.n]
		k.contMin, k.contMax = slices.Grow(k.contMin[:0], rows)[:rows], slices.Grow(k.contMax[:0], rows)[:rows]
		k.contOK = false
	}
	for j := 0; j < e.n; j++ {
		lo, up := m.prob.Bounds(j)
		if !m.integer[j] && (math.Float64bits(lo) != math.Float64bits(k.rootLo[j]) ||
			math.Float64bits(up) != math.Float64bits(k.rootUp[j])) {
			k.contOK = false
		}
		k.rootLo[j], k.rootUp[j] = lo, up
	}
	e.rootLo, e.rootUp = k.rootLo, k.rootUp

	// Build the lazy column index up front: parallel searches share it
	// read-only, so a lazy rebuild mid-search would race.
	m.buildColIndex()

	// Continuous contribution range per row: with integer variables pinned,
	// how much can the row's continuous members still move the activity?
	// Pure-integer rows have a zero range; rows with an unbounded envelope
	// or free slack have an infinite side and never bind the guard there.
	if !k.contOK {
		clear(k.contMin)
		clear(k.contMax)
		for i := range k.contMin {
			for _, nz := range m.prob.Row(i) {
				if m.integer[nz.Index] {
					continue
				}
				lo, up := m.prob.Bounds(nz.Index)
				a, b := nz.Value*lo, nz.Value*up
				if a > b {
					a, b = b, a
				}
				k.contMin[i] += a
				k.contMax[i] += b
			}
		}
		k.contOK = true
	}
	e.contMin, e.contMax = k.contMin, k.contMax

	// Seed the incumbent from the warm-start point when valid.
	if len(m.initial) > 0 && m.feasibleIntegral(m.initial) {
		e.incumbent = append(k.incumbent[:0], m.initial...)
		k.incumbent = e.incumbent
		e.incObj = m.objective(e.incumbent)
	}
	e.repairs.Store(e.incumbent == nil || m.softened(e.incumbent))
	e.boundBits.Store(math.Float64bits(math.Inf(-1)))
	return e
}

// noteBound records a global-bound observation for the stall rule: a strict
// improvement resets the stagnation counter. Monotone max under CAS.
func (e *engine) noteBound(bb float64) {
	for {
		old := e.boundBits.Load()
		if bb <= math.Float64frombits(old)+1e-9 {
			return
		}
		if e.boundBits.CompareAndSwap(old, math.Float64bits(bb)) {
			e.lastGain.Store(e.nodes.Load())
			return
		}
	}
}

// stalled reports whether the stall rule should stop the search: StallNodes
// nodes have passed since the last incumbent or bound improvement while the
// gap between them is already within StallGap. A search in this state is
// burning its node budget proving an answer it almost certainly has — on the
// massively degenerate RAS relaxations the bound can sit flat for hundreds
// of nodes below a near-optimal incumbent.
func (e *engine) stalled(bb float64) bool {
	opt := e.opt
	if opt.StallNodes <= 0 || opt.StallGap <= 0 {
		return false
	}
	inc := e.bestObj()
	if math.IsInf(inc, 1) || inc-bb > opt.StallGap {
		return false
	}
	return e.nodes.Load()-e.lastGain.Load() >= int64(opt.StallNodes)
}

// resumeStall resumes the stall rule's count from what the model's last
// solve left, when this solve's root LP objective (root) and seeded
// incumbent — no heuristic has run yet — are that solve's to the bit, and
// notes whether the search is stalled at entry: it then stops at its first
// node.
func (e *engine) resumeStall(root float64) {
	c := e.carry
	if c.nodes <= 0 || math.Float64bits(c.root) != math.Float64bits(root) ||
		math.Float64bits(c.inc) != math.Float64bits(e.bestObj()) {
		return
	}
	e.lastGain.Store(e.nodes.Load() - c.nodes)
	e.boundBits.Store(math.Float64bits(c.bound))
	e.stalledAtEntry = e.stalled(root)
}

// restoreRootBounds resets the model's own problem to its root bounds so the
// model is unchanged after Solve.
func (e *engine) restoreRootBounds() {
	for j := 0; j < e.n; j++ {
		e.m.prob.SetBounds(j, e.rootLo[j], e.rootUp[j])
	}
}

// expired reports whether the solve should stop, distinguishing a time
// budget running out (ctx deadline → timedOut → Feasible) from an explicit
// cancellation (→ cancelled → Cancelled). Both flags are sticky.
func (e *engine) expired() bool {
	if e.timedOut.Load() || e.cancelled.Load() {
		return true
	}
	switch e.ctx.Err() {
	case nil:
		return false
	case context.DeadlineExceeded:
		e.timedOut.Store(true)
	default:
		e.cancelled.Store(true)
	}
	return true
}

// bestObj reads the shared incumbent objective (+Inf when none).
func (e *engine) bestObj() float64 {
	e.incMu.Lock()
	v := e.incObj
	e.incMu.Unlock()
	return v
}

// offer publishes x as a candidate incumbent with objective obj. Updates are monotone improve-only: a strictly better
// objective replaces the incumbent, anything else is discarded, so racing
// offers can never regress the shared solution. heuristic attributes the
// improvement to a primal heuristic (vs. an integral node LP) for the
// HeuristicWins statistic. Reports whether x became the incumbent.
func (e *engine) offer(x []float64, obj float64, heuristic bool) bool {
	e.incMu.Lock()
	defer e.incMu.Unlock()
	if obj >= e.incObj {
		return false
	}
	e.incObj = obj
	e.incumbent = append(e.kept.incumbent[:0], x...)
	e.kept.incumbent = e.incumbent
	e.repairs.Store(e.m.softened(x))
	e.incUpdates++
	if heuristic {
		e.heurWins++
	}
	e.lastGain.Store(e.nodes.Load())
	return true
}

// incumbentCopy snapshots the shared incumbent (nil when none exists) into a
// buffer the Model keeps, which the next call overwrites. Only the root
// search's goroutine calls it (root status, root heuristics, polish, final
// result), so at most one snapshot is live at a time. A snapshot for Result.X
// takes the buffer with it: the Model lets go of it, and the next solve's
// first snapshot allocates another.
func (e *engine) incumbentCopy(forResult bool) ([]float64, float64) {
	e.incMu.Lock()
	defer e.incMu.Unlock()
	if e.incumbent == nil {
		return nil, e.incObj
	}
	x := append(e.kept.incCopy[:0], e.incumbent...)
	e.kept.incCopy = x
	if forResult {
		e.kept.incCopy = nil
	}
	return x, e.incObj
}

// fillStats copies the solve's statistics into res. The driver calls it after
// every search goroutine has joined, which is what makes the workspaces'
// plain counters safe to read.
func (e *engine) fillStats(res *Result) {
	res.Nodes = int(e.nodes.Load())
	for _, s := range e.searches {
		res.LP.Add(s.ws.Stats())
	}
	e.incMu.Lock()
	res.IncumbentUpdates = e.incUpdates
	res.HeuristicWins = e.heurWins
	e.incMu.Unlock()
}

// handleRootStatus maps a non-Optimal root relaxation status onto a final
// Result. It reports whether res is final.
func (e *engine) handleRootStatus(res *Result, rootSol lp.Solution) bool {
	switch rootSol.Status {
	case lp.Infeasible:
		if inc, incObj := e.incumbentCopy(true); inc != nil {
			// The warm start satisfies every row by direct evaluation, so an
			// infeasible relaxation is numerical noise; keep the incumbent.
			res.Status = Feasible
			res.Objective = incObj
			res.Bound = math.Inf(-1)
			res.X = inc
			return true
		}
		res.Status = Infeasible
		return true
	case lp.Unbounded:
		res.Status = Unbounded
		return true
	case lp.IterLimit, lp.Cancelled:
		inc, incObj := e.incumbentCopy(true)
		if inc == nil {
			res.Status = NoSolution
			return true
		}
		res.Status = Feasible
		if rootSol.Status == lp.Cancelled && e.ctx.Err() != context.DeadlineExceeded {
			res.Status = Cancelled
		}
		res.Objective = incObj
		res.Bound = math.Inf(-1)
		res.X = inc
		return true
	}
	return false
}

// search is the per-goroutine solve scratch: a problem whose bounds this
// goroutine may mutate freely (the model's own problem for the root search,
// a Clone for every other worker), the goroutine's LP workspace — which
// retains the simplex structure, all solver scratch, and the basis of the
// last LP it solved to optimality — and the storage of the node loop and the
// heuristics.
// Nothing in a search is shared across goroutines; everything shared lives
// in the engine.
type search struct {
	m         *Model
	e         *engine
	prob      *lp.Problem
	ws        *lp.Workspace
	seedBasis *lp.Basis // start of a chain whose workspace has solved nothing yet (root basis, cross-round basis)
	forceCold bool      // the next LP starts with no basis (the retry dive's first)
	*scratch
}

// scratch is a search's storage, so that neither an LP nor a heuristic call
// nor a node allocates any. An LP's point is its workspace's until the next
// solve on it (lp.Solution.X), so every point read after a further LP is
// copied here first: the root LP's, which all root heuristics start from, a
// node's, which branch reads after the node's heuristics, and dive's iterate.
type scratch struct {
	rootX    []float64 // the root LP's point
	nodeX    []float64 // the node LP's point
	xbuf     []float64 // rounding-heuristic point
	xibuf    []float64 // roundRepairComplete working point
	divebuf  []float64 // dive working point
	checkbuf []float64 // dive batch-rollback checkpoint

	act   []float64     // integer activity per row (intAct)
	order []int         // roundRepairComplete's rounding order
	bump  []uint32      // roundRepairComplete's marks: column j was bumped in this round-robin when bump[j] == bumpEra
	undo  []boundSave   // bound changes completeLP and dive make and undo
	fixed []bool        // dive's fixed columns
	fracs []fracVar     // dive's fractional columns
	path  []boundChange // a node's bound changes, newest first (applyNodeBounds)

	bumpEra uint32
	bumped  int // columns marked in this era
}

// boundSave is a column's bounds before a heuristic changed them.
type boundSave struct {
	v      int
	lo, up float64
}

// fracVar is a fractional column of a dive with its distance to the nearest
// integer.
type fracVar struct {
	j int
	d float64
}

// size readies the buffers for n columns and rows rows, keeping storage
// wherever it has room. Every point and the activities are overwritten in
// full before they are read, and the lists are emptied before they are
// filled, so what a kept scratch held does not matter.
func (sc *scratch) size(n, rows int) {
	for _, p := range [...]*[]float64{&sc.rootX, &sc.nodeX, &sc.xbuf, &sc.xibuf, &sc.divebuf, &sc.checkbuf} {
		*p = slices.Grow((*p)[:0], n)[:n]
	}
	sc.act = slices.Grow(sc.act[:0], rows)[:rows]
	sc.order = slices.Grow(sc.order[:0], n)
	sc.undo = slices.Grow(sc.undo[:0], n)
	sc.fixed = slices.Grow(sc.fixed[:0], n)[:n]
	sc.fracs = slices.Grow(sc.fracs[:0], n)
	if len(sc.bump) != n {
		sc.bump = make([]uint32, n)
		sc.bumpEra = 0
	}
}

// newBumps starts a round-robin with no column bumped.
func (sc *scratch) newBumps() {
	sc.bumpEra++
	if sc.bumpEra == 0 { // wrapped: marks of 2³² eras ago would read as current
		clear(sc.bump)
		sc.bumpEra = 1
	}
	sc.bumped = 0
}

// newSearch gives the search the workspace ws, which counts from zero for this
// solve, or a new one when ws is nil, and its scratch: the Model's own for the
// search on the model's own problem — the root search — and a new one for
// every other.
func newSearch(e *engine, prob *lp.Problem, seed *lp.Basis, ws *lp.Workspace) *search {
	if ws == nil {
		ws = lp.NewWorkspace()
	}
	ws.ResetStats()
	sc := &e.kept.scratch
	if prob != &e.m.prob {
		sc = new(scratch)
	}
	sc.size(e.n, e.m.prob.NumRows())
	s := &search{
		m: e.m, e: e, prob: prob,
		ws:        ws,
		seedBasis: seed,
		scratch:   sc,
	}
	e.searches = append(e.searches, s)
	return s
}

// offerParentBasis is false only in tests that measure what starting a node
// LP from its parent's basis saves, and coldLPs true only in tests that
// measure what warm starts save altogether: every LP then starts cold.
var offerParentBasis, coldLPs = true, false

// onNodeRepair, set only in tests, is told the node count of every node
// completion processNode runs.
var onNodeRepair func(node int64)

// solveLP solves the search's problem on the search-local workspace, from the
// nearest solved basis: a branch-and-bound node passes the basis of the LP it
// was branched from, and package lp spots by pointer when that is the one the
// workspace still holds (a child solved straight after its parent). A
// heuristic passes nil and continues its own chain — each dive or completion
// LP differs by a few fixings from the one this workspace solved last — which
// the seed basis opens while the workspace has solved nothing. Bound changes
// since the start basis was optimal are absorbed by dual-simplex repair.
// forceCold makes the next LP, and only it, start with no basis; the chain
// then continues from there.
func (s *search) solveLP(start *lp.Basis) lp.Solution {
	var o lp.Options
	cold := s.forceCold || coldLPs
	s.forceCold = false
	switch {
	case cold:
	case start != nil && offerParentBasis:
		o.Start = start
	default:
		o.Start, o.ReuseBasis = s.seedBasis, true
	}
	return s.prob.SolveWith(s.e.ctx, o, s.ws)
}

// solveRoot solves the root relaxation — from Options.RootBasis, the search's
// seed, when the caller supplied one: offered as the start, so that a
// workspace carried over from the solve that exported it (Options.RootWorkspace)
// recognises its own basis, and one that has moved on adopts it instead of
// continuing from wherever the last search ended — and records it on res. The
// returned point is the search's copy (rootX): every root heuristic starts
// from it after LPs of its own. It reports whether res is final
// (handleRootStatus).
func (s *search) solveRoot(res *Result) (lp.Solution, bool) {
	sol := s.solveLP(s.seedBasis)
	copy(s.rootX, sol.X)
	sol.X = s.rootX
	res.RootWorkspace = s.ws
	if sol.Status == lp.Optimal {
		res.RootBasis = s.ws.Basis()
		res.RootObjective = sol.Objective
	}
	res.RootLPIters = sol.Iterations
	res.RootWarm = sol.WarmStarted
	res.RootCold = sol.ColdFallback
	if s.e.handleRootStatus(res, sol) {
		return sol, true
	}
	s.e.resumeStall(sol.Objective)
	return sol, false
}

// intAct computes the integer-variable activity of every row at xi, into the
// search's buffer.
func (s *search) intAct(xi []float64) []float64 {
	m, act := s.m, s.act
	for i := range act {
		a := 0.0
		for _, nz := range m.prob.Row(i) {
			if m.integer[nz.Index] {
				a += nz.Value * xi[nz.Index]
			}
		}
		act[i] = a
	}
	return act
}

// rollback undoes the heuristic bound changes past the first to, newest
// first.
func (s *search) rollback(to int) {
	for i := len(s.undo) - 1; i >= to; i-- {
		s.prob.SetBounds(s.undo[i].v, s.undo[i].lo, s.undo[i].up)
	}
	s.undo = s.undo[:to]
}

// guardBlocked reports the first row that changing integer variable j by
// delta would make unsatisfiable by ANY continuous completion, or -1: the
// completion LP cannot repair a row whose integer part has moved beyond the
// reach of its continuous members.
func (s *search) guardBlocked(act []float64, j int, delta float64) int {
	m, e := s.m, s.e
	for _, ri := range m.colRows(j) {
		i := ri.row
		na := act[i] + ri.coef*delta
		rhs := m.prob.RHS(i)
		switch m.prob.Sense(i) {
		case LE:
			if na+e.contMin[i] > rhs+1e-9 {
				return i
			}
		case GE:
			if na+e.contMax[i] < rhs-1e-9 {
				return i
			}
		case EQ:
			if na+e.contMin[i] > rhs+1e-9 || na+e.contMax[i] < rhs-1e-9 {
				return i
			}
		}
	}
	return -1
}

func (s *search) guardOK(act []float64, j int, delta float64) bool {
	return s.guardBlocked(act, j, delta) == -1
}

func (s *search) applyDelta(act, xi []float64, j int, delta float64) {
	xi[j] += delta
	for _, ri := range s.m.colRows(j) {
		act[ri.row] += ri.coef * delta
	}
}

// guardedRound rounds integer variable j in xi to an integer, preferring
// the warm-start value when it brackets the fractional point (rounding
// toward the incumbent avoids gratuitous deviation — e.g. spurious server
// moves in the RAS model), then the nearest value, falling back to the
// other side when pure-integer rows would be violated.
func (s *search) guardedRound(act, xi []float64, j int) bool {
	m := s.m
	lo, up := s.prob.Bounds(j)
	floor, ceil := math.Floor(xi[j]), math.Ceil(xi[j])
	frac := xi[j] - floor
	first, second := floor, ceil
	if frac > 0.5 {
		first, second = second, first
	}
	// Anchor toward the warm start only when the fractional point is
	// genuinely ambiguous; strong fractional pulls (e.g. capacity fills)
	// must win over stability.
	if j < len(m.initial) && frac > 0.35 && frac < 0.65 {
		if iv := m.initial[j]; floats.ExactEqual(iv, floor) || floats.ExactEqual(iv, ceil) {
			first, second = iv, floor+ceil-iv
		}
	}
	for _, v := range [2]float64{first, second} {
		if v < lo-1e-9 || v > up+1e-9 {
			continue
		}
		if s.guardOK(act, j, v-xi[j]) {
			s.applyDelta(act, xi, j, v-xi[j])
			return true
		}
	}
	return false
}

// completeLP fixes every integer variable to the values in xi, solves the
// LP over the remaining continuous variables, and offers the result as an
// incumbent on success. It restores all bounds before returning.
func (s *search) completeLP(xi []float64) bool {
	m, e, n := s.m, s.e, s.e.n
	mark := len(s.undo)
	ok := true
	for j := 0; j < n && ok; j++ {
		if !m.integer[j] {
			continue
		}
		lo, up := s.prob.Bounds(j)
		v := math.Round(xi[j])
		if v < lo || v > up {
			ok = false
			break
		}
		s.undo = append(s.undo, boundSave{j, lo, up})
		s.prob.SetBounds(j, v, v)
	}
	improved := false
	if ok {
		sol := s.solveLP(nil)
		if sol.Status == lp.Optimal {
			x := sol.X
			for j := 0; j < n; j++ {
				if m.integer[j] {
					x[j] = math.Round(x[j])
				}
			}
			if m.feasibleIntegralIn(s.prob, x) {
				improved = e.offer(x, m.objective(x), true)
			}
		}
	}
	s.rollback(mark)
	return improved
}

// roundRepairComplete is the primary primal heuristic: round integer
// variables to nearest, repair violated rows by nudging integer variables
// (guarding rows made purely of integer variables, like the RAS assignment
// constraints, whose feasibility the completion LP cannot restore), then
// let completeLP settle the continuous variables. Two LP solves total
// regardless of problem size.
func (s *search) roundRepairComplete(seed []float64) bool {
	m, n := s.m, s.e.n
	xi := s.xibuf
	copy(xi, seed)
	for v := range m.penalty {
		xi[v] = 0 // expose soft violations to the repair pass
	}
	act := s.intAct(xi)
	// Guarded rounding in order of decreasing value keeps big counts
	// stable and lets small fractional ones absorb the adjustment.
	order := s.order[:0]
	for j := 0; j < n; j++ {
		if m.integer[j] {
			order = append(order, j)
		}
	}
	s.order = order
	slices.SortFunc(order, func(a, b int) int { return descending(xi[a], xi[b]) })
	for _, j := range order {
		if !s.guardedRound(act, xi, j) {
			return false // pure-integer rows unsatisfiable by rounding
		}
	}

	// Repair pass over mixed rows: with continuous variables at seed
	// values, bump zero-cost integer variables (guarded) to close
	// violations that rounding introduced — e.g. refill capacity lost
	// to rounded-down counts.
	for pass := 0; pass < 4; pass++ {
		dirty := false
		for i, pure := range m.intOnlyRows {
			if pure {
				continue // kept feasible by the guard
			}
			row := m.prob.Row(i)
			lhs := 0.0
			for _, nz := range row {
				lhs += nz.Value * xi[nz.Index]
			}
			rhs := m.prob.RHS(i)
			var need float64
			switch m.prob.Sense(i) {
			case LE:
				if lhs > rhs+1e-7 {
					need = rhs - lhs
				}
			case GE:
				if lhs < rhs-1e-7 {
					need = rhs - lhs
				}
			case EQ:
				if math.Abs(lhs-rhs) > 1e-7 {
					need = rhs - lhs
				}
			}
			if floats.ExactZero(need) {
				continue
			}
			// Round-robin unit bumps across DISTINCT row variables: the
			// members usually span fault domains, and spreading the
			// bumps avoids inflating a max-per-domain envelope variable
			// that would cancel the gain. For the same reason,
			// inequality repairs overshoot by one unit: a single bump
			// can be eaten entirely by an envelope in its own domain.
			if m.prob.Sense(i) != EQ {
				need += 2 * sign(need)
			}
			s.newBumps()
			for cycle := 0; cycle < 64 && math.Abs(need) > 1e-9; cycle++ {
				moved := false
				for _, nz := range row {
					j := nz.Index
					if !m.integer[j] || floats.ExactZero(nz.Value) || !floats.ExactZero(m.prob.Cost(j)) || s.bump[j] == s.bumpEra {
						continue
					}
					step := sign(need) * sign(nz.Value)
					lo, up := s.prob.Bounds(j)
					if xi[j]+step < lo-1e-9 || xi[j]+step > up+1e-9 || !s.guardOK(act, j, step) {
						continue
					}
					s.applyDelta(act, xi, j, step)
					s.bump[j] = s.bumpEra
					s.bumped++
					need -= step * nz.Value
					dirty = true
					moved = true
					if math.Abs(need) <= 1e-9 || math.Signbit(need) != math.Signbit(need+step*nz.Value) {
						need = 0
						break
					}
				}
				if !moved {
					break
				}
				if s.bumped >= len(row) {
					s.newBumps()
				}
			}
		}
		if !dirty {
			break
		}
	}
	return s.completeLP(xi)
}

// dive runs the diving primal heuristic from an LP-feasible fractional
// point: repeatedly fix integer variables that are already (nearly)
// integral plus a batch of the most fractional ones to rounded values, then
// re-solve the LP until the point is integral or infeasible. It offers the
// incumbent on success and restores all bounds before returning.
func (s *search) dive(seed []float64, bias float64) {
	m, e, n := s.m, s.e, s.e.n
	x := s.divebuf
	copy(x, seed)
	defer s.rollback(len(s.undo))
	clear(s.fixed)
	for depth := 0; depth < n+1; depth++ {
		if e.expired() {
			return
		}
		s.intAct(x)
		// Fix near-integral variables in bulk, then a batch of the most
		// fractional ones (warm-started dual repair keeps LP rounds
		// cheap). A per-variable guard cannot see joint effects through
		// coupled continuous variables (e.g. max-envelopes), so when a
		// batch lands infeasible we roll it back and retry one variable
		// at a time.
		fracs := s.fracs[:0]
		progress := false
		checkpoint := len(s.undo)
		var xcheck []float64
		for j := 0; j < n; j++ {
			if !m.integer[j] || s.fixed[j] {
				continue
			}
			f := x[j] - math.Floor(x[j])
			d := math.Min(f, 1-f)
			if d <= 0.01 {
				if s.fix(x, j, bias) {
					progress = true
				}
			} else {
				fracs = append(fracs, fracVar{j, d})
			}
		}
		s.fracs = fracs
		if len(fracs) == 0 {
			if !progress {
				break
			}
		} else {
			slices.SortFunc(fracs, func(a, b fracVar) int { return descending(a.d, b.d) })
			xcheck = s.checkbuf
			copy(xcheck, x)
			batch := len(fracs)/8 + 1
			fixedAny := false
			for _, f := range fracs[:batch] {
				if s.fix(x, f.j, bias) {
					fixedAny = true
				}
			}
			if !fixedAny && !progress {
				return
			}
		}
		sol := s.solveLP(nil)
		if sol.Status != lp.Optimal && len(fracs) > 0 {
			// Batch overshot a coupled constraint: retry with a single
			// most-fractional fix from the checkpoint.
			s.rollback(checkpoint)
			copy(x, xcheck)
			for _, f := range fracs {
				s.fixed[f.j] = false
			}
			s.intAct(x)
			if !s.fix(x, fracs[0].j, bias) {
				return
			}
			sol = s.solveLP(nil)
		}
		if sol.Status != lp.Optimal {
			return // infeasible dive; give up
		}
		copy(x, sol.X)
		if m.mostFractional(x) == -1 {
			// Snap integers exactly and accept if feasible.
			for j := 0; j < n; j++ {
				if m.integer[j] {
					x[j] = math.Round(x[j])
				}
			}
			if m.feasibleIntegralIn(s.prob, x) {
				e.offer(x, m.objective(x), true)
			}
			return
		}
	}
}

// fix pins integer variable j of the dive's point x to a guarded rounding of
// its value — rounded up once its fractional part passes bias — against the
// row activities in s.act, and records the bounds it replaced.
func (s *search) fix(x []float64, j int, bias float64) bool {
	lo, up := s.prob.Bounds(j)
	f := x[j] - math.Floor(x[j])
	if f > bias && f < 1 {
		x[j] = math.Min(up, math.Ceil(x[j])) - 1e-9
	}
	if !s.guardedRound(s.act, x, j) {
		return false
	}
	s.undo = append(s.undo, boundSave{j, lo, up})
	s.prob.SetBounds(j, x[j], x[j])
	s.fixed[j] = true
	return true
}

// descending compares a and b for a sort by decreasing value: it is negative
// exactly when a > b.
func descending(a, b float64) int {
	switch {
	case a > b:
		return -1
	case a < b:
		return 1
	}
	return 0
}

// applyNodeBounds resets the search's problem to root bounds and applies
// nd's bound changes in order. It reports false when the changes cross
// (lo > up), i.e. the node is trivially infeasible.
func (s *search) applyNodeBounds(nd node) bool {
	e := s.e
	for j := 0; j < e.n; j++ {
		s.prob.SetBounds(j, e.rootLo[j], e.rootUp[j])
	}
	path := s.path[:0]
	for l := nd.changes; l != nil; l = l.prev {
		path = append(path, l.boundChange)
	}
	s.path = path
	for i := len(path) - 1; i >= 0; i-- {
		bc := path[i]
		if bc.up < bc.lo {
			return false
		}
		s.prob.SetBounds(bc.v, bc.lo, bc.up)
	}
	return true
}

// branch splits nd on its most fractional variable v at value fv, returning
// the two children ordered so that the near-integer side is LAST (pushed
// last = popped first under LIFO selection).
func (s *search) branch(nd node, v int, fv, objective float64, basis *lp.Basis) (first, second node) {
	e := s.e
	floorUp := math.Floor(fv + intTol)
	ceilLo := math.Ceil(fv - intTol)
	if ceilLo <= floorUp { // numerically integral; nudge
		ceilLo = floorUp + 1
	}
	loV, upV := nodeBounds(nd, v, e.rootLo[v], e.rootUp[v])

	up := node{
		changes: appendChange(nd.changes, boundChange{v, ceilLo, upV}),
		bound:   objective,
		depth:   nd.depth + 1,
		basis:   basis,
	}
	down := node{
		changes: appendChange(nd.changes, boundChange{v, loV, floorUp}),
		bound:   objective,
		depth:   nd.depth + 1,
		basis:   basis,
	}
	// Dive toward the nearer integer first.
	if fv-floorUp < ceilLo-fv {
		return up, down
	}
	return down, up
}

// processNode expands one node on the search's private state: prune, solve
// the relaxation, offer integral/rounded incumbents, run the periodic node
// heuristics, and branch. It appends to open what the expansion leaves
// unexplored and returns it: nothing when the node is pruned or fathomed, its
// two children, or the node itself when its LP was cancelled mid-solve (the
// subtree must stay in the bound). With one worker myNode is simply the node
// count.
func (s *search) processNode(nd node, open []node) []node {
	m, e := s.m, s.e
	opt := e.opt

	// Prune against the shared incumbent. A stale read is harmless: the
	// incumbent only improves, so the worst case is one extra LP solve.
	if nd.bound >= e.bestObj()-opt.AbsGap {
		return open
	}
	if !s.applyNodeBounds(nd) {
		return open
	}

	sol := s.solveLP(nd.basis)
	myNode := e.nodes.Add(1)
	if sol.Status == lp.Cancelled {
		return append(open, nd)
	}
	// Integer restrictions cannot repair an unbounded relaxation in this
	// node's subtree in a way we can detect, so it is skipped like the rest.
	if sol.Status == lp.Infeasible || sol.Status == lp.IterLimit || sol.Status == lp.Unbounded {
		return open
	}
	if sol.Objective >= e.bestObj()-opt.AbsGap {
		return open
	}

	// The node's heuristics solve LPs on this workspace, and branch reads the
	// point after them.
	x := s.nodeX
	copy(x, sol.X)
	frac := m.mostFractional(x)
	if frac == -1 {
		e.offer(x, sol.Objective, false)
		return open
	}

	// Rounding heuristic: round to nearest integers, verify feasibility.
	copy(s.xbuf, x)
	for j := 0; j < e.n; j++ {
		if m.integer[j] {
			s.xbuf[j] = math.Round(s.xbuf[j])
		}
	}
	if m.feasibleIntegralIn(s.prob, s.xbuf) {
		e.offer(s.xbuf, m.objective(s.xbuf), false)
	}
	// The node branches: keep its basis for the children before the periodic
	// heuristics move the workspace on.
	basis := s.ws.Basis()
	// Periodic heuristics from this node's relaxation, keyed to the global
	// node counter (bounds are still the node's at this point). The
	// completion runs only while there is slack to repair (e.repairs): it
	// rarely pays against a slack-free incumbent, but it is what repairs
	// softened instances (Fig 9). The dives run regardless.
	if myNode%16 == 1 && e.repairs.Load() {
		if onNodeRepair != nil {
			onNodeRepair(myNode)
		}
		s.roundRepairComplete(x)
	}
	if myNode%64 == 33 {
		s.dive(x, 0.5)
	}

	first, second := s.branch(nd, frac, x[frac], sol.Objective, basis)
	return append(open, first, second)
}

// rootHeuristics runs the root-node primal heuristic schedule from the
// fractional root relaxation: round/repair/complete, a nearest-rounding
// dive, then gap-dependent retries (an up-biased dive and a retry dive whose
// first LP starts with no basis) and a final repair polish of the incumbent.
func (s *search) rootHeuristics(rootSol lp.Solution) {
	e := s.e
	if e.stalledAtEntry {
		return
	}
	s.roundRepairComplete(rootSol.X)
	s.dive(rootSol.X, 0.5)
	// A second, up-biased dive targets residual shortfalls that the
	// nearest-rounding dive strands (soft capacity slack).
	if e.bestObj()-rootSol.Objective > math.Max(10*e.opt.AbsGap, 0.05*math.Abs(e.bestObj())) {
		s.dive(rootSol.X, 0.3)
	}
	// Warm-started LPs revisit vertices whose roundings can be brittle
	// on tightly-coupled instances; if the dives have not closed most
	// of the gap, retry once from a vertex the warm chain does not reach:
	// the dive's first LP starts with no basis, every later depth continues
	// the dive's own chain from it.
	if e.bestObj()-rootSol.Objective > math.Max(10*e.opt.AbsGap, 0.05*math.Abs(e.bestObj())) {
		s.forceCold = true
		s.dive(rootSol.X, 0.5)
		s.forceCold = false // the dive stopped before its first LP
	}
	// Polish the incumbent with a repair pass; it can close residual
	// soft-penalty slack that greedy dives strand.
	if inc, _ := e.incumbentCopy(false); inc != nil {
		s.roundRepairComplete(inc)
	}
}

// polish closes a search: back at root bounds, it re-runs the repair heuristic
// on the incumbent, which node incumbents found mid-search never saw and which
// often closes residual soft-penalty slack. An incumbent within AbsGap of the
// best outstanding bound is left alone: the search prunes at that distance
// everywhere, so nothing the completion LP could return would be kept. A
// search stalled at entry is the last one again, whose incumbent that one's
// polish saw.
func (s *search) polish(bound float64) {
	e := s.e
	inc, incObj := e.incumbentCopy(false)
	if inc == nil || incObj-bound <= e.opt.AbsGap || e.stalledAtEntry {
		return
	}
	for j := 0; j < e.n; j++ {
		s.prob.SetBounds(j, e.rootLo[j], e.rootUp[j])
	}
	s.roundRepairComplete(inc)
}

// newResult is a solve's Result before its root LP: nothing found, nothing
// proven.
func newResult() Result {
	return Result{Status: NoSolution, Objective: math.Inf(1), Bound: math.Inf(-1), RootObjective: math.Inf(-1)}
}

// finalResult assembles the end-of-search Result from the best outstanding
// node bound and the number of unexplored open nodes, applying the shared
// Optimal/Feasible/Cancelled/Infeasible classification. A search that ran to
// its end with a gap above AbsGap leaves the model its stall count
// (stallCarry).
func (e *engine) finalResult(res Result, outstanding float64, openNodes int) Result {
	opt := e.opt
	incumbent, incObj := e.incumbentCopy(true)
	res.Bound = math.Min(outstanding, incObj)
	if incumbent == nil {
		if openNodes == 0 && !e.timedOut.Load() && !e.cancelled.Load() && int(e.nodes.Load()) < opt.MaxNodes {
			res.Status = Infeasible
		} else {
			res.Status = NoSolution
		}
		return res
	}
	res.Objective = incObj
	res.X = incumbent
	gap := incObj - res.Bound
	if gap > opt.AbsGap && !e.timedOut.Load() && !e.cancelled.Load() {
		e.m.kept.stall = stallCarry{nodes: e.nodes.Load() - e.lastGain.Load(),
			bound: math.Float64frombits(e.boundBits.Load()), root: res.RootObjective, inc: incObj}
	}
	rel := gap / (1 + math.Abs(res.Objective))
	if openNodes == 0 || gap <= opt.AbsGap || rel <= relGap {
		res.Status = Optimal
		if openNodes == 0 {
			res.Bound = res.Objective
		}
	} else if e.cancelled.Load() {
		res.Status = Cancelled
	} else {
		res.Status = Feasible
	}
	return res
}
