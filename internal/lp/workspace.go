package lp

import (
	"context"
	"math"
	"slices"

	"ras/internal/floats"
)

// Workspace holds every piece of solver state that survives between solves:
// the simplex structure derived from a Problem's rows (sparse columns, the
// slack/artificial layout), the basis state of the previous solve (basis,
// statuses, the sparse factorization), and all pricing/ratio-test scratch
// vectors. Building the structure is
// O(nnz + m), and every retained buffer — including the factorization — is
// O(nnz + m) of memory; re-entering a workspace for a problem of the same
// shape reuses all of it, which makes steady-state re-solves
// allocation-free: the Solution's X is the workspace's too.
//
// A Workspace is owned by one goroutine at a time. It retargets itself
// automatically when handed a different Problem, a Problem rebuilt since the
// last solve (Problem.Reset), or one whose shape (variable or row count)
// changed; retained basis state is discarded on retarget, and the storage is
// kept for the new structure.
//
// Variables are indexed 0..nStruct-1 structural, then slacks, then one
// artificial per row starting at artStart.
type Workspace struct {
	// Per-solve context, reset on every entry.
	ctx     context.Context
	opt     Options
	maxIter int // iteration budget of the solve (iterLimit, or proportional to its size)
	iters   int
	diters  int // dual-simplex pivots of the warm attempt; finish counts them

	stats Stats // everything this workspace has done since ResetStats

	// Structure, rebuilt by reshape when the owner, its generation or the shape
	// changes.
	owner    *Problem
	ownerGen uint64      // owner's generation (Problem.Reset) when the structure was built
	m        int         // rows
	n        int         // total columns (structural + slacks + artificials)
	nStruct  int         // structural variable count
	cols     [][]Nonzero // column-wise copy of the rows (which pivotRow reads in place), then the unit columns
	colNz    []Nonzero   // the storage of every column of cols
	artStart int         // first artificial column index
	slackOf  []int       // row → slack column, or -1 for equality rows
	slackRow []int       // slack column − nStruct → row

	// Numeric inputs, refreshed from the Problem on every entry.
	cost    []float64 // phase-2 costs (structural section copied per solve)
	lo      []float64
	up      []float64
	b       []float64 // row RHS (equalities)
	changed []int     // structural columns whose bounds the last refresh changed, ascending

	// Working basis state, mutated freely during a solve.
	basis    []int  // basis[i] = column basic in row i
	inRow    []int  // inRow[j] = row where j is basic, or -1
	atUp     []bool // nonbasic at upper bound (else at lower)
	x        []float64
	xOut     []float64 // the structural point a solve returns as Solution.X
	fact     factor    // sparse basis factorization (LU + eta file)
	repaired bool      // last refactorization swapped artificials into the basis
	offBound bool      // a primal bound flip of this solve left a column's value off its bound's bits

	// Retained good basis: the warm-start seed — the most recent optimal,
	// artificial-free basis this workspace reached, or the Basis it last
	// adopted from Options.Start. It is an index set only — basis columns and
	// bound statuses — and is re-factorized on entry (O(nnz + fill), not
	// O(m³)); when the live factorization still belongs to it even that is
	// skipped. Non-optimal or artificial-containing terminal bases never
	// advance it. An adopted start may leave slots empty (-1); refactorize's
	// repair fills them on entry.
	goodCols   []int
	goodAtUp   []bool
	goodOK     bool   // a retained basis exists for the current shape
	liveIsGood bool   // live factorization still matches goodCols (skip refactorization)
	goodBasis  *Basis // the retained basis in portable form: adopted from, or last exported as; nil until asked for

	// Maintained reduced costs (simplex.go): d_j of every structural and slack
	// column under objective obj, zero on basic columns.
	d       []float64
	obj     []float64 // s.cost, s.shifted, or nil for the phase-1 objective
	dualAge int       // pivots d has absorbed since a fresh BTRAN of the current basis produced it; -1 when it is not this basis's at all
	shifted []float64 // costs with warm-entry shifts, for the dual pass (flipToDualFeasible)

	// The iteration's pivot row and column.
	rho      []float64 // row `leave` of B^-1, by constraint row
	rhoIdx   []int     // its nonzero rows, ascending
	alpha    []float64 // rho·A by column, exact zero off alphaIdx
	alphaIdx []int     // the columns pivotRow touched
	touched  []bool    // membership in alphaIdx
	cands    []int     // dual ratio test candidates
	viol     []int     // primal pricing list: columns violating their sign condition (chooseEntering)
	isViol   []bool    // membership in viol
	w        []float64 // pivot column B^-1 a_q
	wnz      []int     // nonzero slots of w, ascending

	// Scratch buffers.
	y     []float64 // dual prices c_B^T B^-1
	cb    []float64 // basic cost vector (BTRAN source)
	resid []float64 // residual / recompute RHS scratch

	afterPivot func() // test hook, run after every basis change

	// Devex pricing state: reference weights (allocated and reset when an
	// optimize call escalates) and the partial-pricing block rotor, which
	// persists across solves so pricing effort rotates through the columns
	// deterministically.
	gamma  []float64
	rotor  int
	cursor int // Dantzig's round-robin tie cursor (chooseEntering), reset per solve
}

// NewWorkspace returns an empty workspace. Structure is built lazily on the
// first solve and rebuilt whenever the problem shape changes.
func NewWorkspace() *Workspace {
	return &Workspace{}
}

// Stats reports what the workspace has done since NewWorkspace or the last
// ResetStats. Like every other method it is for the owning goroutine, or for
// one that joined it.
func (s *Workspace) Stats() Stats { return s.stats }

// ResetStats zeroes the counters: the owner of a workspace that outlives one
// unit of work calls it between units, so that Stats is each one's own.
func (s *Workspace) ResetStats() { s.stats = Stats{} }

// solve is the single entry point behind Problem.SolveWith.
func (s *Workspace) solve(ctx context.Context, p *Problem, opt Options) Solution {
	reused := s.reshape(p)
	if reused {
		s.stats.WorkspaceReuses++
	}
	s.ctx = ctx
	s.opt = opt
	s.maxIter = iterLimit
	if s.maxIter <= 0 {
		s.maxIter = 2000 + 40*(s.m+s.n)
	}
	s.iters = 0
	s.diters = 0
	s.cursor = 0
	s.refresh(p)
	offBound := s.offBound
	s.offBound = false

	// One rule: start from the nearest solved basis on offer. That is the
	// retained one when the caller asks for it (ReuseBasis) or offers the very
	// Basis it was exported as — no copies, and no refactorization while the
	// live factorization is still its own — otherwise the offered Start, which
	// becomes the retained basis; with neither, cold.
	var sol Solution
	var why ColdReason
	switch {
	case s.goodOK && (opt.ReuseBasis || (opt.Start != nil && opt.Start == s.goodBasis)):
		sol, why = s.runReuse(offBound)
	case opt.Start == nil:
		return s.run()
	case s.adopt(opt.Start):
		sol, why = s.runReuse(false)
	default:
		why = ColdBadBasis // written for another shape
	}
	if why == ColdNone {
		s.stats.WarmHits++
		sol.WarmStarted = true
		return sol
	}
	s.stats.ColdFallbacks[why]++
	warmIters := s.iters
	s.iters = 0
	s.diters = 0
	s.refresh(p) // warm attempt pinned artificial bounds; reset them
	sol = s.run()
	sol.Iterations += warmIters
	sol.ColdFallback = why
	return sol
}

// reshape points the workspace at p, rebuilding the simplex structure unless
// the workspace already holds it for this exact problem, generation and shape.
// It reports whether the existing structure was reused. A rebuild writes into
// the workspace's own storage wherever it has room and leaves every buffer as
// a new workspace's would be: the first solve on a retargeted workspace runs
// exactly as it would on a new one.
func (s *Workspace) reshape(p *Problem) bool {
	m, nStruct := len(p.rows), len(p.cost)
	if s.owner == p && s.ownerGen == p.gen && s.m == m && s.nStruct == nStruct {
		return true
	}
	s.owner = p
	s.ownerGen = p.gen
	s.m = m
	s.nStruct = nStruct
	s.goodOK = false
	s.liveIsGood = false
	s.goodBasis = nil
	s.repaired = false
	s.offBound = false
	s.rotor = 0

	// Count, size once, fill: structural columns from the sparse rows, then
	// one unit column per inequality row (its slack: +1 for LE and -1 for GE,
	// bounds [0, +Inf), zero cost) and one per row (its artificial).
	s.slackOf = resize(s.slackOf, m)
	s.slackRow = s.slackRow[:0]
	n := nStruct
	for i, sense := range p.senses {
		s.slackOf[i] = -1
		if sense != EQ {
			s.slackOf[i] = n
			s.slackRow = append(s.slackRow, i)
			n++
		}
	}
	s.artStart = n
	n += m
	s.n = n
	count := resize(s.inRow, n) // becomes s.inRow, which every start overwrites
	total := 0
	for _, row := range p.rows {
		for _, nz := range row {
			count[nz.Index]++
		}
		total += len(row)
	}
	s.colNz = resize(s.colNz, total+n-nStruct)
	cols := resize(s.cols, n)
	at := 0
	for j := range cols {
		size := 1
		if j < nStruct {
			size = count[j]
		}
		cols[j] = s.colNz[at : at : at+size]
		at += size
	}
	for i, row := range p.rows {
		for _, nz := range row {
			cols[nz.Index] = append(cols[nz.Index], Nonzero{Index: i, Value: nz.Value})
		}
		if sl := s.slackOf[i]; sl >= 0 {
			v := 1.0
			if p.senses[i] == GE {
				v = -1
			}
			cols[sl] = append(cols[sl], Nonzero{Index: i, Value: v})
		}
		cols[s.artStart+i] = append(cols[s.artStart+i], Nonzero{Index: i, Value: 1}) // sign fixed per cold start
	}
	s.cols = cols

	s.cost = resize(s.cost, n)
	s.lo = resize(s.lo, n)
	s.up = resize(s.up, n)
	s.b = resize(s.b, m)
	for j := s.nStruct; j < s.artStart; j++ {
		s.up[j] = Inf // slack bounds are constant: [0, +Inf)
	}

	s.basis = resize(s.basis, m)
	s.inRow = count
	s.atUp = resize(s.atUp, n)
	s.x = resize(s.x, n)
	s.xOut = resize(s.xOut, nStruct)
	s.fact.reset(m)
	s.goodCols = resize(s.goodCols, m)
	s.goodAtUp = resize(s.goodAtUp, n)

	s.d = resize(s.d, s.artStart)
	s.obj = nil
	// The index lists hold each row or column at most once: sized here, they
	// never grow during a solve.
	s.changed = slices.Grow(s.changed[:0], nStruct)
	s.rho = resize(s.rho, m)
	s.rhoIdx = slices.Grow(s.rhoIdx[:0], m)
	s.alpha = resize(s.alpha, s.artStart)
	s.alphaIdx = slices.Grow(s.alphaIdx[:0], s.artStart)
	s.touched = resize(s.touched, s.artStart)
	s.cands = slices.Grow(s.cands[:0], s.artStart)
	s.viol = slices.Grow(s.viol[:0], s.artStart)
	s.isViol = resize(s.isViol, s.artStart)
	s.y = resize(s.y, m)
	s.w = resize(s.w, m)
	s.wnz = slices.Grow(s.wnz[:0], m)
	s.cb = resize(s.cb, m)
	s.resid = resize(s.resid, m)
	s.gamma = s.gamma[:0] // sized when a pass first escalates to Devex
	return false
}

// refresh copies the problem's current numeric data (costs, bounds, RHS)
// into the workspace, listing in s.changed the columns whose bounds differ
// from what it held when the live factorization is the retained basis's, and
// resets the artificial bounds to their pre-solve state. Structure and basis
// state are untouched.
func (s *Workspace) refresh(p *Problem) {
	for j, c := range p.cost {
		if !floats.ExactEqual(s.cost[j], c) {
			s.cost[j] = c
			s.dualAge = -1 // reduced costs kept from the last solve are for other costs
		}
	}
	s.changed = s.changed[:0]
	for j, lo := range p.lo {
		up := p.up[j]
		if math.Float64bits(lo) != math.Float64bits(s.lo[j]) || math.Float64bits(up) != math.Float64bits(s.up[j]) {
			s.lo[j], s.up[j] = lo, up
			if s.liveIsGood { // only a live re-entry reads the list
				s.changed = append(s.changed, j)
			}
		}
	}
	copy(s.b, p.rhs)
	for i := 0; i < s.m; i++ {
		a := s.artStart + i
		s.lo[a] = 0
		s.up[a] = Inf
	}
}

// run performs the two-phase cold solve.
func (s *Workspace) run() Solution {
	m := s.m
	s.liveIsGood = false
	s.dualAge = -1

	// Initial point: every non-artificial variable at a finite bound
	// (prefer the lower bound, which is always finite).
	clear(s.x)
	clear(s.atUp)
	for j := 0; j < s.artStart; j++ {
		s.x[j] = s.lo[j]
	}

	// Residual r = b - A·x determines artificial signs and values.
	resid := s.resid
	copy(resid, s.b)
	for j := 0; j < s.artStart; j++ {
		if floats.ExactZero(s.x[j]) {
			continue
		}
		for _, nz := range s.cols[j] {
			resid[nz.Index] -= nz.Value * s.x[j]
		}
	}
	// Initial basis: a row's own slack when the slack value would be
	// feasible (a "crash" basis that usually covers most rows), otherwise
	// the row's artificial. Artificials stay fixed at zero for rows that
	// do not need one.
	for j := range s.inRow {
		s.inRow[j] = -1
	}
	needPhase1 := false
	for i := 0; i < m; i++ {
		a := s.artStart + i
		if resid[i] < 0 {
			s.cols[a][0].Value = -1
		} else {
			s.cols[a][0].Value = 1
		}
		sl := s.slackOf[i]
		slackVal := 0.0
		useSlack := false
		if sl >= 0 {
			// slack coefficient is +1 for LE, -1 for GE.
			slackVal = resid[i] * s.cols[sl][0].Value
			useSlack = slackVal >= 0
		}
		if useSlack {
			s.basis[i] = sl
			s.inRow[sl] = i
			s.x[sl] = slackVal
			s.up[a] = 0 // artificial unused; pin it
		} else {
			s.basis[i] = a
			s.inRow[a] = i
			s.x[a] = math.Abs(resid[i])
			if s.x[a] > tol {
				needPhase1 = true
			}
		}
	}
	if !s.refactorize() {
		return Solution{Status: Singular, X: s.structX(), Iterations: s.iters}
	}

	// Phase 1: minimize the sum of active artificials.
	if needPhase1 {
		st := s.optimize(nil)
		if st == IterLimit || st == Cancelled || st == Singular {
			return Solution{Status: st, X: s.structX(), Iterations: s.iters}
		}
		infeas := 0.0
		for i := 0; i < m; i++ {
			infeas += s.x[s.artStart+i]
		}
		if infeas > s.feasTol() {
			return Solution{Status: Infeasible, X: s.structX(), Iterations: s.iters}
		}
	}

	// Pin artificials to zero for phase 2. Basic artificials (degenerate at
	// zero) are allowed to remain basic; the bound pin keeps them at zero.
	for i := 0; i < m; i++ {
		a := s.artStart + i
		s.up[a] = 0
		if !floats.ExactZero(s.x[a]) {
			s.x[a] = 0 // clean up residual fuzz below tolerance
		}
	}

	// Phase 2: minimize the true objective.
	st := s.optimize(s.cost)
	return s.finish(st)
}

// finish assembles a Solution from the current state and advances the
// retained good basis when the solve earned it.
func (s *Workspace) finish(st Status) Solution {
	obj := 0.0
	for j := 0; j < s.nStruct; j++ {
		obj += s.cost[j] * s.x[j]
	}
	s.stats.DualIterations += s.diters
	s.saveGood(st)
	return Solution{Status: st, Objective: obj, X: s.structX(), Iterations: s.iters}
}

// saveGood snapshots the working basis as the retained warm-start seed when
// it is optimal and artificial-free — the exact condition under which the
// historical export/import chain advanced. Anything else leaves the previous
// snapshot in place, so a later ReuseBasis solve warm-starts from the last
// good basis rather than from an infeasible or truncated terminal state.
// Only the basis index set and bound statuses are copied; the factorization
// is rebuilt (or, when the live one is still current, reused) on re-entry.
func (s *Workspace) saveGood(st Status) {
	s.liveIsGood = false
	if st != Optimal {
		return
	}
	for _, c := range s.basis {
		if c >= s.artStart {
			return
		}
	}
	copy(s.goodCols, s.basis)
	copy(s.goodAtUp, s.atUp)
	s.goodOK = true
	s.liveIsGood = true
	s.goodBasis = nil
}

// Basis returns the retained good basis in portable form, nil when there is
// none. Calls return the same pointer until a solve advances the retained
// basis, and offering that pointer back as Options.Start is recognised as
// such: branch-and-bound takes a node's basis here when the node branches and
// hands it to both children.
func (s *Workspace) Basis() *Basis {
	if !s.goodOK {
		return nil
	}
	if s.goodBasis == nil {
		b := allAtLower(s.nStruct, s.m)
		for j := 0; j < s.nStruct; j++ {
			if s.goodAtUp[j] {
				b.set(j, AtUpper)
			}
		}
		for _, c := range s.goodCols { // artificial-free: saveGood retains nothing else
			if c < s.nStruct {
				b.set(c, Basic)
			} else {
				b.SetRow(s.slackRow[c-s.nStruct], Basic)
			}
		}
		s.goodBasis = b
	}
	return s.goodBasis
}

// adopt makes b the retained basis, as if the workspace had just solved to
// it, and reports false when b was written for another shape. Basic columns
// take the basis slots in index order, structural before slack; past the
// m-th they are left nonbasic at their lower bound, and slots they do not
// fill stay empty for refactorize's repair.
func (s *Workspace) adopt(b *Basis) bool {
	if b.nCols != s.nStruct || b.nRows != s.m {
		return false
	}
	clear(s.goodAtUp)
	k := 0
	for j := 0; j < s.nStruct; j++ {
		switch st := b.Col(j); {
		case st == AtUpper:
			s.goodAtUp[j] = true
		case st == Basic && k < s.m:
			s.goodCols[k] = j
			k++
		}
	}
	for i, sl := range s.slackOf {
		if sl >= 0 && b.Row(i) == Basic && k < s.m {
			s.goodCols[k] = sl
			k++
		}
	}
	for ; k < s.m; k++ {
		s.goodCols[k] = -1
	}
	s.goodOK, s.liveIsGood, s.goodBasis = true, false, b
	return true
}

// installNonbasics puts every nonbasic column at the bound the warm snapshot
// recorded for it (lower when that upper bound has since become infinite)
// and pins the artificials at zero. s.inRow must already describe the basis.
func (s *Workspace) installNonbasics(atUp []bool) {
	clear(s.x)
	clear(s.atUp)
	s.pinArtificials()
	for j := 0; j < s.n; j++ {
		if s.inRow[j] < 0 {
			s.installAt(j, atUp[j])
		}
	}
}

// installChanged is installNonbasics for a workspace whose live state is the
// retained basis with every nonbasic column installed for the bounds of the
// solve that saved it: only the nonbasic columns refresh listed as changed
// move. Basic columns keep the bound status they had when they entered, which
// nothing reads while they are basic.
func (s *Workspace) installChanged() {
	s.pinArtificials()
	for _, j := range s.changed {
		if s.inRow[j] < 0 {
			s.installAt(j, s.goodAtUp[j])
		}
	}
}

func (s *Workspace) pinArtificials() {
	for i := 0; i < s.m; i++ {
		s.up[s.artStart+i] = 0
	}
}

// installAt puts nonbasic column j at its upper bound when atUp and that bound
// is finite, at its lower bound otherwise.
func (s *Workspace) installAt(j int, atUp bool) {
	if atUp && !math.IsInf(s.up[j], 1) {
		s.x[j] = s.up[j]
		s.atUp[j] = true
	} else {
		s.x[j] = s.lo[j]
		s.atUp[j] = false
	}
}

// fullWarmEntry is true only in tests that check the changed-columns entry of
// runReuse against the full passes it replaces.
var fullWarmEntry = false

// runReuse attempts a warm solve from the workspace's retained good basis.
// The snapshot holds only the basis index set, so entry re-factorizes it —
// except in the common steady-state case where the previous solve ended by
// saving exactly the basis the factorization already represents (bounds never
// enter B, so the factors stay valid across the caller's bound changes): the
// allocation-free fast path of a branch-and-bound child solved straight after
// its parent, and of a model re-solved round after round. There the basis,
// the bound statuses and the nonbasic point are still the saved ones, so only
// the columns whose bounds changed are installed again, unless offBound says
// a bound flip of that solve left a value that reinstalling would change. A
// reason other than ColdNone tells the caller to cold-start; warmFinish lists
// them.
func (s *Workspace) runReuse(offBound bool) (Solution, ColdReason) {
	live := s.liveIsGood
	s.liveIsGood = false
	if !live {
		s.dualAge = -1 // another basis: the reduced costs in hand are not its own
	}
	if live && !offBound && !fullWarmEntry {
		s.installChanged()
		s.recomputeBasics()
		if !s.residualOK() {
			s.dualAge = -1 // a rebuild may repair the basis
			if !s.refactorize() {
				return Solution{}, ColdBadBasis
			}
		}
		return s.warmFinish(true)
	}

	for j := range s.inRow {
		s.inRow[j] = -1
	}
	for i, c := range s.goodCols {
		s.basis[i] = c
		if c >= 0 {
			s.inRow[c] = i
		}
	}
	s.installNonbasics(s.goodAtUp)
	if live {
		s.recomputeBasics()
		if !s.residualOK() {
			s.dualAge = -1 // a rebuild may repair the basis
			if !s.refactorize() {
				return Solution{}, ColdBadBasis
			}
		}
	} else if !s.refactorize() {
		return Solution{}, ColdBadBasis
	}
	return s.warmFinish(false)
}

// warmFinish is the shared tail of every warm start: restore dual
// feasibility by bound flips (and, where a column has no bound to flip to, by
// a cost shift the dual pass alone sees), repair primal feasibility with a
// budgeted dual simplex, then finish with primal iterations on the true costs
// (usually none). It abandons to the cold two-phase start — the returned
// reason says why — only for what the warm basis cannot decide:
//
//   - ColdBudget: the dual repair ran past warmRepairBudget pivots per row;
//   - ColdInfeasible, ColdUnbounded: infeasibility and unboundedness claims
//     are never trusted from a warm basis (accumulated drift can silently
//     break the dual feasibility of an intermediate basis, and bounds that
//     narrowed and re-widened say nothing about rays) — except an
//     infeasibility claim whose pivot row is a Farkas certificate
//     (certifiedInfeasible), which is returned as the answer it proves;
//   - ColdNumerical: the iteration limit, a basis singular beyond repair, or
//     a final point that fails the A·x = b residual check.
//
// Cancellation is returned directly — the point of cancelling is to stop
// working, not to re-solve from scratch.
func (s *Workspace) warmFinish(changedOnly bool) (Solution, ColdReason) {
	s.flipToDualFeasible(changedOnly)
	switch st, certified := s.dualSimplex(warmRepairBudget * s.m); st {
	case Infeasible:
		if certified {
			s.stats.CertifiedInfeasible++
			return s.finish(Infeasible), ColdNone
		}
		return Solution{}, ColdInfeasible
	case IterLimit:
		if s.iters < s.maxIter {
			return Solution{}, ColdBudget
		}
		return Solution{}, ColdNumerical
	case Singular:
		return Solution{}, ColdNumerical
	case Cancelled:
		return s.finish(Cancelled), ColdNone
	}
	// Primal feasible now; primal iterations on the true costs bring in what
	// a cost shift held back (usually nothing).
	st := s.optimize(s.cost)
	if st == Unbounded {
		return Solution{}, ColdUnbounded
	}
	if st == Singular || (st == Optimal && !s.residualOK()) {
		return Solution{}, ColdNumerical
	}
	return s.finish(st), ColdNone
}

// residualOK verifies A·x = b within tolerance across every row — a cheap
// O(nnz) guard against stale factorizations on the warm path.
func (s *Workspace) residualOK() bool {
	resid := s.resid
	copy(resid, s.b)
	for j := 0; j < s.n; j++ {
		if floats.ExactZero(s.x[j]) {
			continue
		}
		for _, nz := range s.cols[j] {
			resid[nz.Index] -= nz.Value * s.x[j]
		}
	}
	for i, r := range resid {
		if math.Abs(r) > 1e-6*(1+math.Abs(s.b[i])) {
			return false
		}
	}
	return true
}

// flipToDualFeasible makes the installed warm basis dual feasible for the
// objective it leaves in s.obj, with that objective's freshly computed reduced
// costs in s.d. Every nonbasic, non-fixed column whose reduced cost has the
// wrong sign for the bound it sits at is moved to its opposite bound, and the
// basic values are recomputed for the moved point. Bounds never enter B, so
// the flips leave the duals — and with them every reduced cost — unchanged:
// afterwards all signs are right and a dual-simplex Infeasible verdict means
// what it says.
//
// A snapshot taken at an optimum of the same costs has the right sign on
// every column that was free to move then. The columns that arrive here
// wrong are the ones that were fixed (lo == up, which the sign conditions
// skip) when it was taken and have been widened since — a dive rollback,
// completeLP's undo, a branch-and-bound backtrack: they re-enter nonbasic at
// the lower bound with a reduced cost of either sign — and, under a basis
// carried over from another model, whatever the squaring-up repriced. One
// that prices out wrong at its lower bound and has no upper bound to move to
// stays where it is, and its cost is raised — in a scratch copy of the costs,
// which then becomes s.obj — to where it prices out at zero: the dual pass
// keeps it out, and the primal pass after it, on the true costs, lets it in.
//
// changedOnly limits the scan to the columns whose bounds refresh saw change,
// for a live re-entry (runReuse) that keeps the reduced costs too: the solve
// that saved the basis ended Optimal, on a fresh vector with no column
// violating by more than tol, and a column whose bounds, status and reduced
// cost are all as they were then still does not.
func (s *Workspace) flipToDualFeasible(changedOnly bool) {
	// A solve that re-enters the basis and factorization the last one ended on
	// also re-enters its reduced costs, when those were freshly computed for
	// the true costs: bounds enter neither.
	if s.dualAge != 0 || !sameVector(s.obj, s.cost) {
		s.refreshDuals(s.cost)
		changedOnly = false
	}
	dtol := math.Max(tol*1e3, 1e-6)
	flips, shifts := 0, 0
	cols := s.artStart // the artificials are pinned at zero
	if changedOnly {
		cols = len(s.changed)
	}
	for k := 0; k < cols; k++ {
		j := k
		if changedOnly {
			j = s.changed[k]
		}
		viol := s.violation(j)
		switch {
		case viol <= dtol:
		case s.atUp[j]:
			s.atUp[j] = false
			s.x[j] = s.lo[j]
			flips++
		case !math.IsInf(s.up[j], 1):
			s.atUp[j] = true
			s.x[j] = s.up[j]
			flips++
		default:
			if shifts == 0 {
				s.shifted = append(s.shifted[:0], s.cost...)
				s.obj = s.shifted
			}
			s.shifted[j] += viol
			s.d[j] = 0
			shifts++
		}
	}
	if flips > 0 {
		s.recomputeBasics()
	}
	s.stats.FlippedColumns += flips
	s.stats.CostShifts += shifts
}

func (s *Workspace) feasTol() float64 { return tol * float64(1+s.m) * 100 }

// cancelled polls the solve context. The check runs once per simplex pivot,
// whose own cost dwarfs the atomic load inside ctx.Err, so polling every
// iteration keeps cancellation latency at a single pivot without measurable
// overhead.
func (s *Workspace) cancelled() bool { return s.ctx.Err() != nil }

// structX copies the structural part of the point into the workspace's output
// buffer and returns it: Solution.X.
func (s *Workspace) structX() []float64 {
	copy(s.xOut, s.x[:s.nStruct])
	return s.xOut
}
