package lp

import (
	"math"
	"slices"

	"ras/internal/floats"
)

// This file is the iteration kernel shared by the primal and the dual simplex.
// What an iteration needs of the nonbasic columns — their reduced costs d_N
// and the pivot row α_N = e_r·B⁻¹·A_N — it carries along instead of
// re-deriving:
//
//   - d is computed from a fresh BTRAN of the basic costs where a solve enters
//     a pass (refreshDuals) and after that updated per pivot, d_j -= θ·α_j over
//     the pivot row's nonzeros (updateDuals). It is recomputed from scratch at
//     every refactorization, and once more before a primal pass may answer
//     Optimal: that verdict is only ever read off a vector that came from a
//     fresh BTRAN of the final basis, never off one that accumulated updates.
//   - α is computed row-wise (pivotRow): ρ = e_r·B⁻¹ comes out of the sparse
//     btranRow as a short ascending list of rows, and each such constraint row
//     is walked once into a scatter vector with an index list. The dual ratio
//     test, the reduced-cost update and the Devex weight update all read that
//     one list; nothing in an iteration loops over all n columns except the
//     primal pricing scan of d itself.

// priceBlock is the partial-pricing block width used by the Devex stage:
// candidate entering columns are priced one block at a time, rotating
// deterministically through the blocks, and the scan stops at the first
// block containing an eligible candidate. Problems narrower than one block
// degrade to full pricing.
const priceBlock = 256

// devexAfter is the number of iterations a single primal pass runs under
// Dantzig pricing before escalating to Devex with partial pricing. The
// threshold is sized so that the solves behind the repo's deterministic
// regression suites (the longest measured optimize call across the
// experiment reproductions runs just under 1000 iterations) stay on pure
// Dantzig and keep their historical pivot sequences bit-for-bit, while
// genuinely long degenerate solves — whose iteration budget scales with
// problem size — still escalate to Devex well before the budget runs out. Only
// tests change it, to 0, which engages Devex from the first iteration.
var devexAfter = 1500

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

// tieTol is the relative tolerance within which two pricing quantities — two
// dual ratios, two primal violations — count as tied. Maintained reduced
// costs agree with a fresh computation to about 1e-12; anything from 1e-7 to
// 1e-11 here gives the same pivot sequences on the benchmark's workloads.
const tieTol = 1e-9

// residueTol is the magnitude, relative to the largest entry of a pivot row ρ,
// at or below which certifiedInfeasible takes an entry for cancellation
// residue — terms that sum to zero in exact arithmetic and to a few ulps in
// floating point.
const residueTol = 1e-14

// dualPivotTol is the magnitude below which a pivot-row entry cannot carry a
// dual pivot.
const dualPivotTol = 1e-9

// pricing names the rule that picks the entering column of a primal
// iteration.
type pricing int8

const (
	dantzig pricing = iota
	devex
	bland
)

// sameVector reports whether a and b are the same stored cost vector (nil,
// the phase-1 objective, equals only itself).
func sameVector(a, b []float64) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// costOf reports the objective coefficient of column j under the objective
// the reduced costs are kept for: s.obj, or with s.obj nil the phase-1
// objective, 1 on every artificial and 0 elsewhere.
func (s *Workspace) costOf(j int) float64 {
	switch {
	case s.obj != nil:
		return s.obj[j]
	case j >= s.artStart:
		return 1
	}
	return 0
}

// refreshDuals recomputes the reduced costs d_j = c_j − c_B·B⁻¹·a_j of every
// structural and slack column under objective obj from a fresh BTRAN of the
// current basis (artificials are never priced: a pass either stops short of
// them or finds them fixed at zero). When the vector it replaces was a
// maintained one for the same objective, the largest disagreement between the
// two is recorded as drift.
func (s *Workspace) refreshDuals(obj []float64) {
	// A repaired basis made columns nonbasic behind the vector's back.
	measure := s.dualAge > 0 && sameVector(s.obj, obj) && !s.repaired
	s.obj = obj
	for i, c := range s.basis {
		s.cb[i] = s.costOf(c)
	}
	y, d := s.y, s.d
	s.fact.btran(y, s.cb)
	drift := 0.0
	for j := 0; j < s.artStart; j++ {
		dj := 0.0
		if s.inRow[j] < 0 {
			dj = s.costOf(j)
			for _, nz := range s.cols[j] {
				dj -= y[nz.Index] * nz.Value
			}
			drift = max(drift, math.Abs(dj-d[j]))
		}
		d[j] = dj
	}
	s.stats.DualRefreshes++
	if measure {
		s.stats.MaxDualDrift = max(s.stats.MaxDualDrift, drift)
	}
	s.dualAge = 0
}

// violation reports how far the maintained reduced cost of column j violates
// the optimality sign condition for its bound status. Basic and fixed columns
// report 0.
func (s *Workspace) violation(j int) float64 {
	if s.inRow[j] >= 0 || floats.ExactEqual(s.lo[j], s.up[j]) {
		return 0
	}
	if s.atUp[j] {
		return s.d[j] // want d > 0 to decrease from upper bound
	}
	return -s.d[j] // want d < 0 to increase from lower bound
}

// pivotRow computes the pivot row α_j = ρ·a_j of every structural and slack
// column with an entry in a row where ρ (s.rho, nonzero on s.rhoIdx) is
// nonzero, into s.alpha with the touched columns listed in s.alphaIdx; every
// other entry of s.alpha is an exact zero. It walks the problem's constraint
// rows as they stand, plus each row's slack. Rows are taken in ascending
// order, so each α_j accumulates its terms in the order a dot product down
// column j would, and comes out bit for bit the same. Basic columns are not
// skipped — their entries, zero but for rounding except the leaving column's
// 1, are for the callers to ignore — and artificials are left out.
func (s *Workspace) pivotRow() {
	alpha, touched := s.alpha, s.touched
	for _, j := range s.alphaIdx {
		alpha[j] = 0
		touched[j] = false
	}
	idx := s.alphaIdx[:0]
	rows := s.owner.rows
	for _, i := range s.rhoIdx {
		r := s.rho[i]
		for _, nz := range rows[i] {
			j := nz.Index
			if !touched[j] {
				touched[j] = true
				idx = append(idx, j)
			}
			alpha[j] += r * nz.Value
		}
		if sl := s.slackOf[i]; sl >= 0 {
			alpha[sl] += r * s.cols[sl][0].Value
			idx = append(idx, sl) // a slack has one row: listed once
		}
	}
	s.alphaIdx = idx
}

// updateDuals carries the maintained reduced costs across the pivot in which
// column enter, with pivot-row entry alphaQ, replaces basic column out: the
// duals move by θ·ρ with θ = d_enter/α_enter, so every nonbasic reduced cost
// moves by −θ·α_j. It runs before the basis arrays change.
func (s *Workspace) updateDuals(enter, out int, alphaQ float64) {
	d, alpha := s.d, s.alpha
	theta := d[enter] / alphaQ // nonzero: both ratio tests screen the pivot element against a positive threshold before choosing it
	for _, j := range s.alphaIdx {
		if s.inRow[j] < 0 {
			d[j] -= theta * alpha[j]
		}
	}
	d[enter] = 0
	if out < s.artStart {
		d[out] = -theta
	}
	s.dualAge++
}

// optimize runs primal simplex iterations minimizing cost — nil for the
// phase-1 objective, the sum of the artificials — over the structural and
// slack columns (an artificial never enters: it is either fixed at zero or,
// in phase 1, has just been driven out). It returns Optimal, Unbounded, or
// IterLimit.
//
// Pricing escalates through three deterministic stages as a single call runs
// long:
//
//  1. Dantzig (most-violated reduced cost) for the first devexAfter
//     iterations. The warm re-solves that dominate branch-and-bound finish in
//     a handful of pivots, where Dantzig's myopic pick is cheap and almost
//     always right.
//  2. Devex (Forrest–Goldfarb reference weights, reset at the switch) with
//     partial pricing over column blocks once the call exceeds devexAfter
//     iterations — the long tail of large cold solves, where Dantzig's
//     zig-zagging is what makes them long. Candidates score d²/γ; the block
//     rotor advances deterministically and persists across solves.
//  3. Bland's rule after blandAfter consecutive degenerate pivots, which
//     guarantees termination.
//
// Every stage switches on deterministic iteration counts and breaks ties by
// rule (chooseEntering), so pivot sequences — and therefore solutions — are
// bit-for-bit reproducible for a given problem and options.
//
// All three read the maintained reduced costs, through the list of columns
// that violate their sign condition (s.viol): the list is rebuilt by one scan
// whenever the vector is recomputed and extended after each pivot from the
// columns the pivot row touched, so pricing costs what the violators number,
// not n. The pass enters on a fresh vector, and when pricing finds no
// candidate on one that has absorbed pivots since, it recomputes the vector
// and prices once more: Optimal is only returned on reduced costs that a
// BTRAN of the final basis produced.
func (s *Workspace) optimize(cost []float64) Status {
	w := s.w
	refactorEvery := s.opt.refactorEvery()
	staged := dantzig

	// Bland's rule engages after a burst of degenerate pivots to guarantee
	// termination; staged Dantzig/Devex pricing is used otherwise for speed.
	degenerate := 0
	callIters := 0

	if s.dualAge != 0 || !sameVector(s.obj, cost) {
		s.refreshDuals(cost)
	}
	s.collectViolators()
	for {
		if s.iters >= s.maxIter {
			return IterLimit
		}
		if s.cancelled() {
			return Cancelled
		}
		s.iters++
		callIters++

		if staged == dantzig && callIters > devexAfter {
			// Escalate to Devex: reset the reference framework to the
			// current nonbasic set (all weights 1).
			staged = devex
			s.gamma = resize(s.gamma, s.artStart)
			for j := range s.gamma {
				s.gamma[j] = 1
			}
		}
		rule := staged
		if degenerate >= blandAfter {
			rule = bland
			s.stats.BlandIters++
		}

		enter := s.chooseEntering(rule)
		if enter == -1 && s.dualAge > 0 {
			s.refreshDuals(cost)
			s.collectViolators()
			enter = s.chooseEntering(rule)
		}
		if enter == -1 {
			return Optimal
		}

		// Direction of change for the entering variable.
		sigma := 1.0 // increasing from lower bound
		if s.atUp[enter] {
			sigma = -1.0
		}

		// w = B^-1 · a_enter (FTRAN), with its nonzero slots: the ratio test
		// and step application touch only them.
		s.wnz = s.fact.ftran(w, s.cols[enter], s.wnz)

		// Ratio test over the pivot column's nonzeros: basic variable i
		// changes by -sigma·t·w[i].
		tMax := s.up[enter] - s.lo[enter] // bound-flip distance (may be +Inf)
		leave := -1
		leaveToUpper := false
		piv := tol * 10 // no ratio-test division below sees a smaller step
		for _, i := range s.wnz {
			step := -sigma * w[i]
			if step > piv { // basic value increases toward its upper bound
				bi := s.basis[i]
				if math.IsInf(s.up[bi], 1) {
					continue
				}
				t := (s.up[bi] - s.x[bi]) / step
				if t < tMax-tol || (t < tMax+tol && leave == -1) {
					tMax, leave, leaveToUpper = t, i, true
				}
			} else if step < -piv { // basic value decreases toward its lower bound
				bi := s.basis[i]
				t := (s.x[bi] - s.lo[bi]) / -step
				if t < tMax-tol || (t < tMax+tol && leave == -1) {
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
		if tMax <= tol {
			degenerate++
			s.stats.DegenerateSteps++
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
			// basis change, so reduced costs and Devex weights are untouched.
			s.atUp[enter] = !s.atUp[enter]
			bound := s.lo[enter]
			if s.atUp[enter] {
				bound = s.up[enter]
			}
			s.offBound = s.offBound || math.Float64bits(s.x[enter]) != math.Float64bits(bound)
			continue
		}

		// The pivot row of the CURRENT basis inverse, taken before the
		// factorization absorbs the pivot, carries the reduced costs — and,
		// while the Devex stage is active, the reference weights — across it.
		out := s.basis[leave]
		s.rhoIdx = s.fact.btranRow(s.rho, leave, s.rhoIdx)
		s.pivotRow()
		if rule == devex {
			s.devexUpdate(enter, out, w[leave])
		}
		s.updateDuals(enter, out, w[leave])
		s.noteViolators(out)

		// Pivot: replace basis[leave] with enter.
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
		if s.dualAge == 0 {
			s.collectViolators() // the pivot refactorized: the vector is new
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
		if s.afterPivot != nil {
			s.afterPivot()
		}
	}
}

// collectViolators rebuilds the pricing list from scratch: every structural
// and slack column whose reduced cost violates its sign condition by more
// than the tolerance.
func (s *Workspace) collectViolators() {
	list := s.viol[:0]
	for j := range s.isViol {
		s.isViol[j] = s.violation(j) > tol
		if s.isViol[j] {
			list = append(list, j)
		}
	}
	s.viol = list
}

// noteViolators extends the pricing list after a pivot: only the columns the
// pivot row touched, and the column that left the basis, had their reduced
// cost changed. Columns that stopped violating are dropped when pricing next
// meets them.
func (s *Workspace) noteViolators(out int) {
	for _, j := range s.alphaIdx {
		if !s.isViol[j] && s.violation(j) > tol {
			s.isViol[j] = true
			s.viol = append(s.viol, j)
		}
	}
	if out < s.artStart && !s.isViol[out] {
		s.isViol[out] = true // priced, and dropped if it does not violate, like any other
		s.viol = append(s.viol, out)
	}
}

// chooseEntering picks the entering column from the pricing list under the
// given rule, or -1 when no column violates its sign condition by more than
// the tolerance. Each rule is a function of the set of violators, not of the
// order the list holds them in.
//
// Dantzig ties are settled in two tiers. Columns whose violations are equal
// to the last bit go to the lowest index, as they always have: such ties are
// structural, and the column order is the model's. A column within tieTol of
// the largest violation without being equal to it is a tie only up to
// rounding — maintained reduced costs of symmetric columns differ in the last
// bits according to which of them has been basic — and letting those bits
// decide would make the vertex, and with it the whole branch-and-bound
// trajectory, a function of the arithmetic. Such ties go round robin instead:
// to the first tied column at or after the cursor, which then moves past it
// (reset at every solve, so a solve stays a function of its problem and its
// start).
func (s *Workspace) chooseEntering(rule pricing) int {
	// One pass drops the columns that no longer violate and finds the rule's
	// leading candidate.
	enter, best, second := -1, 0.0, 0.0 // second: the largest violation below best (Dantzig)
	nBlocks := (s.artStart + priceBlock - 1) / priceBlock
	if s.rotor >= nBlocks {
		s.rotor = 0
	}
	bestBlock := nBlocks // Devex: blocks past the rotor, cyclically, of the nearest block with a candidate
	list := s.viol
	for k := 0; k < len(list); {
		j := list[k]
		viol := s.violation(j)
		if viol <= tol {
			s.isViol[j] = false
			list[k] = list[len(list)-1]
			list = list[:len(list)-1]
			continue
		}
		k++
		switch rule {
		case bland:
			// First eligible column in index order.
			if enter == -1 || j < enter {
				enter = j
			}
		case devex:
			blk := j/priceBlock - s.rotor
			if blk < 0 {
				blk += nBlocks
			}
			// Devex weights are 1 at reset and only ever grow or re-floor at
			// 1 (devexUpdate), so the max is an identity that keeps the
			// divisor nonzero.
			score := viol * viol / max(s.gamma[j], 1)
			if blk < bestBlock || (blk == bestBlock && (score > best || (floats.ExactEqual(score, best) && j < enter))) {
				enter, best, bestBlock = j, score, blk
			}
		default:
			switch {
			case viol > best:
				enter, best, second = j, viol, best
			case floats.ExactEqual(viol, best):
				enter = min(enter, j)
			case viol > second:
				second = viol
			}
		}
	}
	s.viol = list
	if enter == -1 {
		return -1
	}
	switch tied := best - tieTol*(1+best); {
	case rule == devex:
		s.rotor = enter / priceBlock
	case rule == dantzig && second >= tied:
		// Some violation is within rounding of the largest without equalling
		// it: round robin over everything that close.
		pickAt := s.artStart
		for _, j := range list {
			if s.violation(j) < tied {
				continue
			}
			at := j - s.cursor
			if at < 0 {
				at += s.artStart
			}
			if at < pickAt {
				enter, pickAt = j, at
			}
		}
		s.cursor = enter + 1
	}
	return enter
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
// deterministic cadence (eta count or fill growth) is due — and with every
// refactorization the reduced costs are recomputed from scratch. It reports
// false when the basis could not be refactorized even after repair.
func (s *Workspace) absorbPivot(leave, refactorEvery int) bool {
	if math.Abs(s.w[leave]) >= 1e-12 { // else numerically hopeless: rebuild the new basis from scratch
		s.fact.update(leave, s.w, s.wnz)
		s.stats.UpdateEtas++
		if !s.fact.needRefactor(refactorEvery) {
			return true
		}
	}
	if !s.refactorize() {
		return false
	}
	s.refreshDuals(s.obj)
	return true
}

// devexUpdate propagates Devex reference weights across a pivot where
// column enter replaces basic column out, with pivot element alphaQ =
// (B^-1 a_enter)[leave]: for each nonbasic j, γ_j ← max(γ_j, (α_j/α_q)²·γ_q),
// α being the pivot row of the pre-update inverse that pivotRow left in
// s.alpha.
func (s *Workspace) devexUpdate(enter, out int, alphaQ float64) {
	if math.Abs(alphaQ) < 1e-12 {
		return
	}
	gamma := s.gamma
	gq := gamma[enter]
	for _, j := range s.alphaIdx {
		alpha := s.alpha[j]
		if s.inRow[j] >= 0 || j == enter || floats.ExactZero(alpha) {
			continue
		}
		r := alpha / alphaQ
		if g := r * r * gq; g > gamma[j] {
			gamma[j] = g
		}
	}
	// The leaving variable becomes nonbasic with the entering column's
	// weight scaled through the pivot, floored at the reference weight 1.
	if out < s.artStart {
		gamma[out] = max(gq/(alphaQ*alphaQ), 1)
	}
}

// dualSimplex restores primal feasibility from a dual-feasible basis after
// bound changes, the branch-and-bound warm-start workhorse, on the reduced
// costs flipToDualFeasible left in s.d. It returns Optimal when the basis is
// primal feasible, Infeasible when no pivot can repair a violated basic
// variable — certified then says whether the row that shows it is a proof
// (certifiedInfeasible) — or IterLimit: when the solve's iteration budget is spent, or
// when the solve's dual pivots would pass maxDual.
func (s *Workspace) dualSimplex(maxDual int) (st Status, certified bool) {
	m := s.m
	w := s.w
	refactorEvery := s.opt.refactorEvery()
	ptol := tol * 1e3 // primal bound tolerance

	for {
		if s.iters >= s.maxIter {
			return IterLimit, false
		}
		if s.cancelled() {
			return Cancelled, false
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
			return Optimal, false
		}
		if s.diters >= maxDual {
			return IterLimit, false
		}
		s.iters++
		s.diters++

		// The pivot row of B^-1, then of the whole tableau.
		out := s.basis[leave]
		s.rhoIdx = s.fact.btranRow(s.rho, leave, s.rhoIdx)
		s.pivotRow()
		enter := s.dualRatioTest(s.x[out] < target)
		if enter == -1 {
			return Infeasible, s.certifiedInfeasible(out) // no pivot can repair the violation
		}
		alphaQ := s.alpha[enter]

		// Pivot: move entering by Δq so the leaving variable hits target.
		s.wnz = s.fact.ftran(w, s.cols[enter], s.wnz)
		dq := (s.x[out] - target) / alphaQ // nonzero: dualRatioTest admits no column with |alpha| < dualPivotTol
		for _, i := range s.wnz {
			s.x[s.basis[i]] -= dq * w[i]
		}
		newVal := s.x[enter] + dq
		s.updateDuals(enter, out, alphaQ)

		s.inRow[out] = -1
		s.atUp[out] = floats.ExactEqual(target, s.up[out]) && !floats.ExactEqual(s.lo[out], s.up[out])
		s.x[out] = target
		s.basis[leave] = enter
		s.inRow[enter] = leave
		s.x[enter] = newVal
		if !s.absorbPivot(leave, refactorEvery) {
			return Singular, false
		}
		// A singular-basis repair here leaves bound-violating basics, which
		// is the state dual simplex exists to fix — clear the flag and let
		// the violation scan above pick them up.
		s.repaired = false
		if s.afterPivot != nil {
			s.afterPivot()
		}
	}
}

// dualRatioTest picks the entering column of a dual pivot from the pivot row
// in s.alpha: among the nonbasic, non-fixed columns that can move the leaving
// variable toward its violated bound (below says which), the one whose
// reduced cost reaches zero first, |d_j|/|α_j| smallest. It returns -1 when
// there is none.
//
// Ratios within a relative tolerance of the smallest count as tied, and ties
// go to the lowest column index. Degenerate vertices make exact ties routine,
// and an exact comparison would let the last bit of two reduced costs —
// which depends on the order every update since the last refresh was applied
// in — decide the pivot and with it the whole branch-and-bound trajectory.
func (s *Workspace) dualRatioTest(below bool) int {
	best := math.Inf(1)
	cands := s.cands[:0]
	for _, j := range s.alphaIdx {
		alpha := s.alpha[j]
		if s.inRow[j] >= 0 || floats.ExactEqual(s.lo[j], s.up[j]) || math.Abs(alpha) < dualPivotTol {
			continue
		}
		// Admissible directions: the leaving value changes by -Δq·alpha, with
		// Δq ≥ 0 for a column at its lower bound and ≤ 0 for one at its upper,
		// so it rises when alpha is negative at lower or positive at upper.
		if (alpha < 0) != (below != s.atUp[j]) {
			continue
		}
		cands = append(cands, j)
		best = min(best, math.Abs(s.d[j]/alpha)) // nonzero: |alpha| >= dualPivotTol was screened above
	}
	s.cands = cands
	enter := -1
	tied := best + tieTol*(1+best)
	for _, j := range cands {
		if (enter == -1 || j < enter) && math.Abs(s.d[j]/s.alpha[j]) <= tied { // nonzero: cands holds only columns with |alpha| >= dualPivotTol
			enter = j
		}
	}
	return enter
}

// certifiedInfeasible checks the infeasibility claim of a dual ratio test that
// found no entering column for basic column out against the pivot row it was
// read from, as a Farkas certificate. Row r of the tableau says
// x_out + Σ_N ᾱ_j·x_j = ρ̄·b for every point satisfying A·x = b, so if ρ̄·b lies
// outside the range the left side can take over the box lo ≤ x ≤ up by more
// than the feasibility tolerance, no feasible point exists — a bound that
// involves no reduced cost, so drift there cannot make it wrong, and that
// costs one pass over the pivot row's nonzeros.
//
// ρ̄ and ᾱ are the exact row of the basis inverse; the computed ρ and α stand
// in for them, and the basic columns say how well: their entries are 0 by
// definition, 1 for out, and whatever else pivotRow computed there is the
// residual of ρ·B = e_r. A residual above dualPivotTol means the
// factorization has drifted and the certificate is refused; below it, the
// error it leaves in a nonbasic entry is orders of magnitude under the margin
// required. The basic columns' own computed entries are otherwise ignored —
// rounding-sized values on columns with no upper bound (slacks, envelope
// variables) would each widen the range to infinity, and did, on half the
// claims of the benchmark's quiet workload. A nonbasic column with no upper
// bound still does exactly that, however small its entry: the ratio test
// passed it over as too small to pivot on, which is no proof it could not
// move. Artificials are fixed at zero on the warm path and contribute nothing.
func (s *Workspace) certifiedInfeasible(out int) bool {
	// Any vector certifies as well as any other, so take ρ without its
	// residue: an entry of a few ulps plants one in every α of its row, and on
	// a nonbasic column with no upper bound that alone voids the certificate.
	largest := 0.0
	for _, i := range s.rhoIdx {
		largest = max(largest, math.Abs(s.rho[i]))
	}
	kept := s.rhoIdx[:0]
	for _, i := range s.rhoIdx {
		if math.Abs(s.rho[i]) > residueTol*largest {
			kept = append(kept, i)
		} else {
			s.rho[i] = 0
		}
	}
	if len(kept) < len(s.rhoIdx) {
		s.rhoIdx = kept
		s.pivotRow()
	}
	rhs := 0.0
	for _, i := range s.rhoIdx {
		rhs += s.rho[i] * s.b[i]
	}
	least, most := s.lo[out], s.up[out]
	for _, j := range s.alphaIdx {
		a := s.alpha[j]
		switch {
		case s.inRow[j] >= 0:
			if j == out {
				a--
			}
			if math.Abs(a) > dualPivotTol {
				return false
			}
		case a > 0:
			least += a * s.lo[j]
			most += a * s.up[j]
		case a < 0:
			least += a * s.up[j]
			most += a * s.lo[j]
		}
	}
	tol := s.feasTol()
	return rhs < least-tol || rhs > most+tol
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
	slices.Sort(deficient)
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
