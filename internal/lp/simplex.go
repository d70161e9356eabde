package lp

import (
	"math"

	"ras/internal/floats"
)

// priceBlock is the partial-pricing block width used by the Devex stage:
// candidate entering columns are priced one block at a time, rotating
// deterministically through the blocks, and the scan stops at the first
// block containing an eligible candidate. Problems narrower than one block
// degrade to full pricing.
const priceBlock = 256

// defaultDevexAfter is the default Dantzig→Devex escalation point; see
// Options.DevexAfter. The threshold is sized so that the solves behind the
// repo's deterministic regression suites (the longest measured optimize call
// across the experiment reproductions runs just under 1000 iterations) stay
// on pure Dantzig and keep their historical pivot sequences bit-for-bit,
// while genuinely long degenerate solves — whose iteration budget scales
// with problem size — still escalate to Devex well before hitting MaxIter.
const defaultDevexAfter = 1500

// blandAfter is the number of consecutive degenerate pivots tolerated before
// pricing falls back to Bland's rule (first eligible column in index order),
// which guarantees termination at the cost of speed.
const blandAfter = 400

// warmRepairBudget caps the dual-simplex repair of a warm start at this many
// pivots per constraint row; past it the warm attempt is abandoned to the
// cold two-phase start (ColdBudget). Sized as a tail guard from the
// benchmark's four workloads at seed 1, set-up rounds included: of 82 890
// warm solves — 922 of them root LPs started from the previous round's basis,
// carried over by identity where the model was rebuilt — six needed more than
// 1·m dual pivots, all six carried roots, the largest that finished 1.71·m;
// two more (one failure_churn set-up round, in both passes) ran into the
// budget. Node and heuristic LPs stay under 0.66·m, while a cold solve of the
// same models takes 0.6–1.0·m iterations at the median and 3.8·m at most — so
// 2·m bounds a warm solve's worst case at a cold one plus a prefix of about
// two.
const warmRepairBudget = 2

// minPivotStep floors the ratio-test pivot threshold: steps smaller than
// this are numerically meaningless even when opt.Tol is configured to zero,
// and dividing by them would overflow the ratio toward ±Inf.
const minPivotStep = 1e-30

// optimize runs primal simplex iterations minimizing cost over the first
// priceLimit columns (columns at or beyond priceLimit never enter). It
// returns Optimal, Unbounded, or IterLimit.
//
// Pricing escalates through three deterministic stages as a single call runs
// long:
//
//  1. Dantzig (most-violated reduced cost, full scan) for the first
//     devexAfter iterations. The warm re-solves that dominate branch-and-
//     bound finish in a handful of pivots, where Dantzig's myopic pick is
//     cheap and almost always right.
//  2. Devex (Forrest–Goldfarb reference weights, reset at the switch) with
//     partial pricing over column blocks once the call exceeds devexAfter
//     iterations — the long tail of large cold solves, where Dantzig's
//     zig-zagging is what makes them long. Candidates score d²/γ; the block
//     rotor advances deterministically and persists across solves.
//  3. Bland's rule after blandAfter consecutive degenerate pivots, which
//     guarantees termination.
//
// Every stage breaks ties to the lowest column index and switches on
// deterministic iteration counts, so pivot sequences — and therefore
// solutions — are bit-for-bit reproducible for a given problem and options.
func (s *Workspace) optimize(cost []float64, priceLimit int) Status {
	m := s.m
	y := s.y
	w := s.w

	devexAfter := s.opt.devexAfter()
	refactorEvery := s.opt.refactorEvery()
	gamma := s.gamma
	useDevex := false

	// Bland's rule engages after a burst of degenerate pivots to guarantee
	// termination; staged Dantzig/Devex pricing is used otherwise for speed.
	degenerate := 0

	nBlocks := (priceLimit + priceBlock - 1) / priceBlock
	callIters := 0

	for {
		if s.iters >= s.opt.MaxIter {
			return IterLimit
		}
		if s.cancelled() {
			return Cancelled
		}
		s.iters++
		callIters++

		// y = c_B^T · B^-1 via BTRAN of the basic cost vector.
		for i := 0; i < m; i++ {
			s.cb[i] = cost[s.basis[i]]
		}
		s.fact.btran(y, s.cb)

		if !useDevex && callIters > devexAfter {
			// Escalate to Devex: reset the reference framework to the
			// current nonbasic set (all weights 1).
			useDevex = true
			for j := 0; j < priceLimit; j++ {
				gamma[j] = 1
			}
		}

		// Price nonbasic columns.
		useBland := degenerate >= blandAfter
		enter := -1
		switch {
		case useBland:
			// Bland: first eligible column in index order, scanning all
			// columns so optimality claims stay exact.
			for j := 0; j < priceLimit; j++ {
				if viol := s.priceOne(cost, y, j); viol > s.opt.Tol {
					enter = j
					break
				}
			}
		case useDevex:
			if s.rotor >= nBlocks {
				s.rotor = 0
			}
			var enterScore float64
			for scanned := 0; scanned < nBlocks && enter == -1; scanned++ {
				blk := s.rotor + scanned
				if blk >= nBlocks {
					blk -= nBlocks
				}
				jEnd := (blk + 1) * priceBlock
				if jEnd > priceLimit {
					jEnd = priceLimit
				}
				for j := blk * priceBlock; j < jEnd; j++ {
					viol := s.priceOne(cost, y, j)
					if viol <= s.opt.Tol {
						continue
					}
					// Devex weights are 1 at reset and only ever grow or
					// re-floor at 1 (devexUpdate), so the max is an
					// identity that keeps the divisor nonzero.
					score := viol * viol / max(gamma[j], 1)
					if enter == -1 || score > enterScore {
						enter, enterScore = j, score
					}
				}
				if enter != -1 {
					s.rotor = blk
				}
			}
		default:
			// Dantzig: most-violated reduced cost over all columns.
			best := s.opt.Tol
			for j := 0; j < priceLimit; j++ {
				if viol := s.priceOne(cost, y, j); viol > best {
					enter = j
					best = viol
				}
			}
		}
		if enter == -1 {
			return Optimal
		}

		// Direction of change for the entering variable.
		sigma := 1.0 // increasing from lower bound
		if s.atUp[enter] {
			sigma = -1.0
		}

		// w = B^-1 · a_enter (FTRAN), tracking the nonzero slots so the
		// ratio test and step application touch only them.
		s.wnz = s.fact.ftran(w, s.cols[enter], s.wnz)

		// Ratio test over the pivot column's nonzeros: basic variable i
		// changes by -sigma·t·w[i].
		tMax := s.up[enter] - s.lo[enter] // bound-flip distance (may be +Inf)
		leave := -1
		leaveToUpper := false
		// The positive floor keeps the pivot threshold meaningful when Tol is
		// zero, so the ratio-test divisions below never see a zero step.
		piv := max(s.opt.Tol*10, minPivotStep)
		for _, i := range s.wnz {
			step := -sigma * w[i]
			if step > piv { // basic value increases toward its upper bound
				bi := s.basis[i]
				if math.IsInf(s.up[bi], 1) {
					continue
				}
				t := (s.up[bi] - s.x[bi]) / step
				if t < tMax-s.opt.Tol || (t < tMax+s.opt.Tol && leave == -1) {
					tMax, leave, leaveToUpper = t, i, true
				}
			} else if step < -piv { // basic value decreases toward its lower bound
				bi := s.basis[i]
				t := (s.x[bi] - s.lo[bi]) / -step
				if t < tMax-s.opt.Tol || (t < tMax+s.opt.Tol && leave == -1) {
					tMax, leave, leaveToUpper = t, i, false
				}
			}
		}

		if math.IsInf(tMax, 1) {
			return Unbounded
		}
		if tMax < 0 {
			tMax = 0
		}
		if tMax <= s.opt.Tol {
			degenerate++
		} else {
			degenerate = 0
		}

		// Apply the step.
		for _, i := range s.wnz {
			bi := s.basis[i]
			s.x[bi] -= sigma * tMax * w[i]
		}
		s.x[enter] += sigma * tMax

		if leave == -1 {
			// Bound flip: entering variable moved to its other bound. No
			// basis change, so Devex weights are untouched.
			s.atUp[enter] = !s.atUp[enter]
			continue
		}

		// Devex weight update, using the pivot row of the CURRENT basis
		// inverse (a BTRAN of the leaving slot's unit vector, taken before
		// the factorization absorbs the pivot): for each nonbasic j,
		// γ_j ← max(γ_j, (α_j/α_q)²·γ_q) where α = pivot-row entries.
		// Weights are only maintained while the Devex stage is active.
		if useDevex && !useBland {
			s.fact.btranRow(s.brow, leave, s.cb)
			s.devexUpdate(gamma, priceLimit, enter, leave, w[leave])
		}

		// Pivot: replace basis[leave] with enter.
		out := s.basis[leave]
		s.inRow[out] = -1
		s.atUp[out] = leaveToUpper
		// Snap the leaving variable exactly onto its bound.
		if leaveToUpper {
			s.x[out] = s.up[out]
		} else {
			s.x[out] = s.lo[out]
		}
		s.basis[leave] = enter
		s.inRow[enter] = leave
		if !s.absorbPivot(leave, refactorEvery) {
			return Singular
		}
		if s.repaired {
			// A singular refactorization swapped artificials into the basis.
			// The repaired point may violate bounds, which breaks the primal
			// iteration's invariants — surface it instead of iterating on.
			s.repaired = false
			if !s.basicsWithinBounds() {
				return Singular
			}
		}
	}
}

// basicsWithinBounds reports whether every basic variable currently sits
// within its bounds (to the phase feasibility tolerance) — the primal
// simplex invariant a singular-basis repair may have broken.
func (s *Workspace) basicsWithinBounds() bool {
	tol := s.feasTol()
	for i := 0; i < s.m; i++ {
		bi := s.basis[i]
		if s.x[bi] < s.lo[bi]-tol || s.x[bi] > s.up[bi]+tol {
			return false
		}
	}
	return true
}

// absorbPivot folds the pivot at slot `leave` (whose FTRAN image is in s.w /
// s.wnz) into the factorization: a product-form eta in the common case, a
// full refactorization when the pivot element is numerically hopeless or the
// deterministic cadence (eta count or fill growth) is due. It reports false
// when the basis could not be refactorized even after repair.
func (s *Workspace) absorbPivot(leave, refactorEvery int) bool {
	if math.Abs(s.w[leave]) < 1e-12 {
		// Numerically hopeless pivot; rebuild the new basis from scratch.
		return s.refactorize()
	}
	s.fact.update(leave, s.w, s.wnz)
	s.stats.UpdateEtas++
	if s.fact.needRefactor(refactorEvery) {
		return s.refactorize()
	}
	return true
}

// priceOne computes the pricing violation of nonbasic column j against dual
// prices y: how far its reduced cost violates the optimality sign condition
// for its bound status. Basic and fixed columns report 0.
func (s *Workspace) priceOne(cost, y []float64, j int) float64 {
	if s.inRow[j] >= 0 || floats.ExactEqual(s.lo[j], s.up[j]) {
		return 0
	}
	d := cost[j]
	for _, nz := range s.cols[j] {
		d -= y[nz.Index] * nz.Value
	}
	if s.atUp[j] {
		return d // want d > 0 to decrease from upper bound
	}
	return -d // want d < 0 to increase from lower bound
}

// devexUpdate propagates Devex reference weights across a pivot where
// column enter replaces the basic variable of row leave, with pivot element
// alphaQ = (B^-1 a_enter)[leave]. The pivot row of the pre-update inverse —
// already BTRAN'd into s.brow by the caller — supplies α_j = (B^-1)_leave ·
// a_j for every nonbasic column via sparse dot products with the stored
// columns.
func (s *Workspace) devexUpdate(gamma []float64, priceLimit, enter, leave int, alphaQ float64) {
	if math.Abs(alphaQ) < 1e-12 {
		return
	}
	gq := gamma[enter]
	brow := s.brow
	for j := 0; j < priceLimit; j++ {
		if s.inRow[j] >= 0 || j == enter {
			continue
		}
		alpha := 0.0
		for _, nz := range s.cols[j] {
			alpha += brow[nz.Index] * nz.Value
		}
		if floats.ExactZero(alpha) {
			continue
		}
		r := alpha / alphaQ
		if g := r * r * gq; g > gamma[j] {
			gamma[j] = g
		}
	}
	// The leaving variable becomes nonbasic with the entering column's
	// weight scaled through the pivot, floored at the reference weight 1.
	out := s.basis[leave]
	if out < priceLimit {
		gl := gq / (alphaQ * alphaQ)
		if gl < 1 {
			gl = 1
		}
		gamma[out] = gl
	}
}

// dualSimplex restores primal feasibility from a dual-feasible basis after
// bound changes, the branch-and-bound warm-start workhorse. It returns
// Optimal when the basis is primal feasible, Infeasible when no pivot can
// repair a violated basic variable, or IterLimit — when the solve's MaxIter
// is spent, or when the solve's dual pivots would pass maxDual.
func (s *Workspace) dualSimplex(cost []float64, maxDual int) Status {
	m := s.m
	y := s.y
	w := s.w
	refactorEvery := s.opt.refactorEvery()
	ptol := s.opt.Tol * 1e3 // primal bound tolerance

	for {
		if s.iters >= s.opt.MaxIter {
			return IterLimit
		}
		if s.cancelled() {
			return Cancelled
		}

		// Leaving row: largest bound violation among basic variables.
		leave := -1
		worst := ptol
		var target float64 // bound the leaving variable snaps to
		for i := 0; i < m; i++ {
			bi := s.basis[i]
			if v := s.lo[bi] - s.x[bi]; v > worst {
				worst, leave, target = v, i, s.lo[bi]
			}
			if v := s.x[bi] - s.up[bi]; v > worst {
				worst, leave, target = v, i, s.up[bi]
			}
		}
		if leave == -1 {
			return Optimal
		}
		if s.diters >= maxDual {
			return IterLimit
		}
		s.iters++
		s.diters++

		// y = c_B^T B^-1 for reduced costs, and the pivot row of B^-1 for
		// the dual ratio test — both BTRANs over the factorization.
		for i := 0; i < m; i++ {
			s.cb[i] = cost[s.basis[i]]
		}
		s.fact.btran(y, s.cb)
		s.fact.btranRow(s.brow, leave, s.cb)
		binvRow := s.brow
		below := s.x[s.basis[leave]] < target // violated below: value must rise

		// Entering column: dual ratio test.
		enter := -1
		bestRatio := math.Inf(1)
		var alphaQ float64
		for j := 0; j < s.n; j++ {
			if s.inRow[j] >= 0 || floats.ExactEqual(s.lo[j], s.up[j]) {
				continue
			}
			alpha := 0.0
			for _, nz := range s.cols[j] {
				alpha += binvRow[nz.Index] * nz.Value
			}
			if math.Abs(alpha) < 1e-9 {
				continue
			}
			// Admissible directions: see package docs. The leaving value
			// changes by -Δq·alpha; Δq ≥ 0 for atLower, ≤ 0 for atUpper.
			var ok bool
			if !s.atUp[j] { // can increase: Δq ≥ 0 → change = -alpha·Δq
				ok = (below && alpha < 0) || (!below && alpha > 0)
			} else { // can decrease: Δq ≤ 0 → change = +alpha·|Δq|
				ok = (below && alpha > 0) || (!below && alpha < 0)
			}
			if !ok {
				continue
			}
			d := cost[j]
			for _, nz := range s.cols[j] {
				d -= y[nz.Index] * nz.Value
			}
			ratio := math.Abs(d) / math.Abs(alpha)
			if ratio < bestRatio {
				bestRatio, enter, alphaQ = ratio, j, alpha
			}
		}
		if enter == -1 {
			return Infeasible // no pivot can repair the violation
		}

		// Pivot: move entering by Δq so the leaving variable hits target.
		s.wnz = s.fact.ftran(w, s.cols[enter], s.wnz)
		dq := (s.x[s.basis[leave]] - target) / alphaQ // nonzero: alphaQ was recorded together with enter behind the |alpha| >= 1e-9 screen, and enter == -1 returned above
		for _, i := range s.wnz {
			s.x[s.basis[i]] -= dq * w[i]
		}
		newVal := s.x[enter] + dq

		out := s.basis[leave]
		s.inRow[out] = -1
		s.atUp[out] = floats.ExactEqual(target, s.up[out]) && !floats.ExactEqual(s.lo[out], s.up[out])
		s.x[out] = target
		s.basis[leave] = enter
		s.inRow[enter] = leave
		s.x[enter] = newVal
		if !s.absorbPivot(leave, refactorEvery) {
			return Singular
		}
		// A singular-basis repair here leaves bound-violating basics, which
		// is the state dual simplex exists to fix — clear the flag and let
		// the violation scan above pick them up.
		s.repaired = false
	}
}

// refactorize rebuilds the sparse basis factorization from the current
// basis columns and recomputes the basic variable values. A singular or
// incomplete basis — linearly dependent columns, or the empty slots of an
// adopted start — is repaired by giving each such slot the slack of a row the
// factorization could not pivot (its artificial when the row is an equality)
// and re-factorizing; repairs are counted in Stats.SingularRepairs and, if
// repair cannot produce a factorizable basis, a false return that callers
// turn into Status Singular.
func (s *Workspace) refactorize() bool {
	for attempt := 0; ; attempt++ {
		deficient := s.fact.factorize(s.cols, s.basis)
		s.stats.Refactorizations++
		s.stats.FillIns += s.fact.fillIns
		if len(deficient) == 0 {
			break
		}
		if attempt >= 3 {
			return false
		}
		s.stats.SingularRepairs += len(deficient)
		s.repairBasis(deficient)
		s.repaired = true
	}
	s.recomputeBasics()
	return true
}

// repairBasis fills the deficient slots with unit columns of the rows the
// factorization could not pivot — the row's slack, or its artificial when it
// has none — making the columns they replace nonbasic at their lower bounds.
// The pairing is deterministic: ascending slots to ascending rows. Neither
// unit column of an unpivoted row can itself be basic (it would have pivoted
// that row), so the swap is always sound.
func (s *Workspace) repairBasis(deficient []int) {
	rows := s.fact.unpivotedRows()
	sortInts(deficient)
	for k, slot := range deficient {
		if out := s.basis[slot]; out >= 0 {
			s.inRow[out] = -1
			s.atUp[out] = false
			s.x[out] = s.lo[out]
		}
		c := s.slackOf[rows[k]]
		if c < 0 {
			c = s.artStart + rows[k]
		}
		s.basis[slot] = c
		s.inRow[c] = slot
	}
}

// sortInts sorts a small int slice in place (insertion sort: deficiency
// lists are nearly always length 1, never large).
func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0; j-- {
			if xs[j] >= xs[j-1] {
				break
			}
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// recomputeBasics sets x_B = B^-1 (b - N x_N) from the nonbasic point.
func (s *Workspace) recomputeBasics() {
	m := s.m
	resid := s.resid
	copy(resid, s.b)
	for j := 0; j < s.n; j++ {
		if s.inRow[j] >= 0 || floats.ExactZero(s.x[j]) {
			continue
		}
		for _, nz := range s.cols[j] {
			resid[nz.Index] -= nz.Value * s.x[j]
		}
	}
	s.fact.ftranDense(s.w, resid)
	for i := 0; i < m; i++ {
		s.x[s.basis[i]] = s.w[i]
	}
}
