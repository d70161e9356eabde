package lp

import (
	"math"

	"ras/internal/floats"
)

// This file implements the sparse basis factorization behind the simplex
// kernel: a Markowitz-ordered sparse LU refactorization plus a
// product-form-of-inverse (PFI) eta file for the pivots applied since the
// last refactorization. Together they represent the action of B^-1 without
// ever materializing it:
//
//	B^-1 = E_k ··· E_1 · S · U^-1 · L^-1
//
// where L^-1 is the sequence of unit-lower-triangular elimination etas, U
// the sparse upper-triangular factor (solved column-wise), S the
// pivot-order-to-basis-slot permutation, and E_i the update etas appended by
// pivots. FTRAN applies the chain left-to-right to map a constraint-row
// vector to basis-slot coordinates (B^-1·a); BTRAN applies the transposed
// chain in reverse to map slot coordinates to row coordinates (c^T·B^-1).
//
// Memory is O(nnz(L)+nnz(U)+nnz(etas)) and a refactorization costs
// O(nnz + fill) — for the transportation-like bases RAS produces (a handful
// of nonzeros per column, long singleton chains) both stay close to linear
// in m, replacing the dense inverse's O(m²) storage and O(m³) rebuild.

// Refactorization policy constants. Every trigger is a deterministic
// function of pivot counts and stored nonzeros — never wall-clock — so a
// given problem refactorizes at exactly the same iterations on every run
// and at every worker count.
const (
	// defaultRefactorEvery is the default eta-count refactorization cadence
	// (see Options.RefactorEvery): the number of PFI update etas accumulated
	// before the factorization is rebuilt from the basis columns. Each eta
	// both slows FTRAN/BTRAN and compounds floating-point drift, so the
	// interval trades per-pivot cost against refactorization cost.
	defaultRefactorEvery = 32

	// fillGrowthLimit triggers an early refactorization when the eta file's
	// nonzeros exceed this multiple of the factor's own nonzeros (plus m, so
	// tiny bases are not penalized): dense spikes in B^-1·a_q make etas fat,
	// and refactorizing compacts them back into near-triangular factors.
	fillGrowthLimit = 4

	// pivAbsTol is the absolute magnitude below which a candidate pivot is
	// numerically zero; a column whose best candidate falls below it is
	// declared deficient (linearly dependent) rather than divided by fuzz.
	pivAbsTol = 1e-11

	// pivRelTol is the threshold-pivoting fraction: within the chosen
	// column, only entries with |v| >= pivRelTol·max|column| may pivot, so
	// Markowitz sparsity preferences can never select an entry that would
	// blow up the multipliers.
	pivRelTol = 0.01
)

// etaOp is one elementary (eta) matrix: the identity with column pivot
// replaced so that applying it scales the pivot component and adds multiples
// of it elsewhere. L elimination etas are unit-diagonal (scale = 1, handled
// implicitly); PFI update etas carry the explicit 1/pivot scale.
type etaOp struct {
	pivot int       // component the eta pivots on
	invP  float64   // 1/pivot value (1 for unit L etas, unused there)
	nz    []Nonzero // off-pivot entries: Index = component, Value = coefficient
}

// factor is a sparse factorization of the current simplex basis. It is
// rebuilt in place by factorize and extended by update; all storage is
// retained across refactorizations so the steady state allocates nothing.
type factor struct {
	m int

	// LU refactorization product, in elimination order j = 0..m-1.
	// lops[j] holds the unit elimination multipliers of step j (applied to
	// row coordinates), ucols[j] the U column of the j-th pivot (entries in
	// previously pivoted rows), pr[j]/ps[j] the pivot row and basis slot,
	// invP[j] the reciprocal pivot.
	lops  []etaOp
	ucols [][]Nonzero
	pr    []int
	ps    []int
	invP  []float64

	// PFI update etas appended by pivots since the last refactorization,
	// operating on basis-slot coordinates.
	etas   []etaOp
	etaNnz int

	factNnz int // nonzeros stored in L + U at the last refactorization

	// Scratch reused across calls.
	rv      []float64 // row-coordinate working vector
	workCol [][]Nonzero
	rowCols [][]int32 // row -> slots with a (possibly stale) entry
	rowCnt  []int32   // active nonzeros per row
	colCnt  []int32   // active nonzeros per column slot
	rowDone []bool
	colDone []bool
	pos     []int32 // scatter index: row -> position in the column being updated
	posEra  []int32 // epoch marks validating pos entries
	era     int32
	nzbuf   []Nonzero // spill arena for freshly built columns

	// State of the refactorization in progress (load → pivot… → finish).
	colHeap   []uint64 // pivot-column queue, see pushCol
	done      int      // pivots recorded so far
	fillIns   int
	deficient []int // slots found unpivotable
}

// newFactor returns a factorization sized for an m-row basis. It holds no
// factors until the first factorize call.
func newFactor(m int) *factor {
	f := &factor{m: m}
	f.lops = make([]etaOp, m)
	f.ucols = make([][]Nonzero, m)
	f.pr = make([]int, m)
	f.ps = make([]int, m)
	f.invP = make([]float64, m)
	f.rv = make([]float64, m)
	f.workCol = make([][]Nonzero, m)
	f.rowCols = make([][]int32, m)
	f.rowCnt = make([]int32, m)
	f.colCnt = make([]int32, m)
	f.rowDone = make([]bool, m)
	f.colDone = make([]bool, m)
	f.pos = make([]int32, m)
	f.posEra = make([]int32, m)
	return f
}

// nnz reports the nonzeros currently stored across factors and etas — the
// fill the refactorization policy watches.
func (f *factor) nnz() int { return f.factNnz + f.etaNnz }

// etaCount reports the update etas applied since the last refactorization.
func (f *factor) etaCount() int { return len(f.etas) }

// needRefactor reports whether the deterministic refactorization policy
// asks for a rebuild before the next pivot is applied: the eta file reached
// the cadence limit, or eta fill outgrew the factorization itself.
func (f *factor) needRefactor(every int) bool {
	if len(f.etas) >= every {
		return true
	}
	return f.etaNnz >= fillGrowthLimit*(f.factNnz+f.m)
}

// factorize rebuilds the LU factors from the given basis columns
// (cols[basis[i]] is the constraint column basic in slot i; a negative entry
// is an empty slot, which comes back deficient) and discards the eta file. It
// returns the basis slots it could not pivot — empty for a
// nonsingular basis — leaving the factors usable for the slots it did pivot
// only in the nonsingular case; callers must repair and re-factorize on a
// non-empty return. The returned slice is reused by the next call.
func (f *factor) factorize(cols [][]Nonzero, basis []int) (deficient []int) {
	f.load(cols, basis)
	for cs := f.popMinCol(); cs >= 0; cs = f.popMinCol() {
		f.pivot(cs)
	}
	return f.finish()
}

// load starts a refactorization: it discards the eta file and builds the
// working copy of the basis matrix, column-sparse, with the row -> columns
// index and the pivot-column heap. Columns are copied because elimination
// mutates them; the arena and per-slot slices are reused across calls.
func (f *factor) load(cols [][]Nonzero, basis []int) {
	m := f.m
	f.etas = f.etas[:0]
	f.etaNnz = 0
	f.done = 0
	f.fillIns = 0
	f.deficient = f.deficient[:0]

	nnzTotal := 0
	for s := 0; s < m; s++ {
		if basis[s] >= 0 {
			nnzTotal += len(cols[basis[s]])
		}
	}
	if cap(f.nzbuf) < nnzTotal+m {
		f.nzbuf = make([]Nonzero, 0, 2*(nnzTotal+m))
	}
	arena := f.nzbuf[:0]
	for i := 0; i < m; i++ {
		f.rowCols[i] = f.rowCols[i][:0]
		f.rowCnt[i] = 0
		f.rowDone[i] = false
		f.colDone[i] = false
	}
	f.colHeap = f.colHeap[:0]
	for s := 0; s < m; s++ {
		var src []Nonzero
		if basis[s] >= 0 {
			src = cols[basis[s]]
		}
		start := len(arena)
		arena = append(arena, src...)
		f.workCol[s] = arena[start:len(arena):len(arena)]
		f.colCnt[s] = int32(len(src))
		if len(src) > 0 {
			f.pushCol(s)
		}
		for _, nz := range src {
			f.rowCols[nz.Index] = append(f.rowCols[nz.Index], int32(s))
			f.rowCnt[nz.Index]++
		}
	}
}

// The pivot-column queue is a binary min-heap of (active count, slot) keys
// packed count<<32|slot, so integer order is "fewest active nonzeros, ties to
// the lowest slot" — the Markowitz column rule. Deletion is lazy: a column's
// count changing pushes a fresh key and leaves the old one behind, and
// popMinCol discards keys that no longer match their column. Rescanning all
// slots for every pivot instead was O(m²) per refactorization: 1.97 s of the
// 2.32 s factorize took on the benchmark's failure_churn profile.

// pushCol queues slot s under its current active count.
func (f *factor) pushCol(s int) {
	h := append(f.colHeap, uint64(f.colCnt[s])<<32|uint64(s))
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if h[parent] <= h[i] {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	f.colHeap = h
}

// popMinCol returns the active column with the fewest active nonzeros, ties
// to the lowest slot, or -1 when every remaining column is deficient.
func (f *factor) popMinCol() int {
	h := f.colHeap
	for len(h) > 0 {
		key := h[0]
		last := len(h) - 1
		h[0] = h[last]
		h = h[:last]
		for i := 0; ; {
			c := 2*i + 1
			if c >= len(h) {
				break
			}
			if r := c + 1; r < len(h) && h[r] < h[c] {
				c = r
			}
			if h[i] <= h[c] {
				break
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
		if s := int(uint32(key)); !f.colDone[s] && f.colCnt[s] == int32(key>>32) {
			f.colHeap = h
			return s
		}
	}
	f.colHeap = h
	return -1
}

// pivot runs one elimination step on pivot column cs: it picks the pivot row,
// records the step's L and U entries, and eliminates the pivot row from every
// other active column. A column with no numerically usable pivot is recorded
// as deficient instead.
func (f *factor) pivot(cs int) {
	// Pivot row within the column: threshold pivoting for stability, then
	// the fewest active row nonzeros (the Markowitz count, the column factor
	// being fixed), ties to the lowest row.
	col := f.workCol[cs]
	colMax := 0.0
	for _, nz := range col {
		if !f.rowDone[nz.Index] {
			if a := math.Abs(nz.Value); a > colMax {
				colMax = a
			}
		}
	}
	if colMax < pivAbsTol {
		// Numerically dependent column: no usable pivot.
		f.colDone[cs] = true
		f.markColumnInactive(cs)
		f.deficient = append(f.deficient, cs)
		return
	}
	thresh := pivRelTol * colMax
	pivRow := -1
	var pivVal float64
	var pivCnt int32
	for _, nz := range col {
		i := nz.Index
		if f.rowDone[i] || math.Abs(nz.Value) < thresh {
			continue
		}
		if pivRow == -1 || f.rowCnt[i] < pivCnt || (f.rowCnt[i] == pivCnt && i < pivRow) {
			pivRow, pivVal, pivCnt = i, nz.Value, f.rowCnt[i]
		}
	}

	// Record the pivot: U entries are the column's values in already
	// pivoted rows; L multipliers are its values in still-active rows.
	j := f.done
	f.pr[j] = pivRow
	f.ps[j] = cs
	f.invP[j] = 1 / pivVal // nonzero: pivVal passed the Markowitz screen |v| >= pivRelTol*colMax with colMax >= pivAbsTol
	ue := f.ucols[j][:0]
	le := f.lops[j].nz[:0]
	for _, nz := range col {
		switch {
		case nz.Index == pivRow:
		case f.rowDone[nz.Index]:
			if !floats.ExactZero(nz.Value) {
				ue = append(ue, nz)
			}
		default:
			if !floats.ExactZero(nz.Value) {
				le = append(le, Nonzero{Index: nz.Index, Value: nz.Value * f.invP[j]})
			}
			f.rowCnt[nz.Index]--
		}
	}
	f.ucols[j] = ue
	f.lops[j] = etaOp{pivot: pivRow, invP: 1, nz: le}
	f.rowDone[pivRow] = true
	f.colDone[cs] = true
	f.done++

	// Eliminate the pivot row from every other active column holding an
	// entry there. The entry itself stays in place as a future U value
	// (its row is now pivoted); only the active rows change, picking up
	// fill-in from the pivot column's multipliers.
	pl := le
	for _, s32 := range f.rowCols[pivRow] {
		s := int(s32)
		if s == cs || f.colDone[s] {
			continue
		}
		tgt := f.workCol[s]
		alpha := 0.0
		for _, nz := range tgt {
			if nz.Index == pivRow {
				alpha = nz.Value
				break
			}
		}
		if floats.ExactZero(alpha) {
			continue // stale index entry
		}
		f.colCnt[s]-- // the pivot-row entry leaves the active count
		if len(pl) > 0 {
			// Scatter the target column's positions, then merge the
			// pivot multipliers: existing entries update in place, new
			// rows append as fill.
			f.era++
			era := f.era
			for idx, nz := range tgt {
				f.pos[nz.Index] = int32(idx)
				f.posEra[nz.Index] = era
			}
			for _, lnz := range pl {
				i := lnz.Index
				delta := alpha * lnz.Value // alpha * (v_i / pivot)
				if f.posEra[i] == era {
					tgt[f.pos[i]].Value -= delta
				} else {
					tgt = append(tgt, Nonzero{Index: i, Value: -delta})
					f.pos[i] = int32(len(tgt) - 1)
					f.posEra[i] = era
					f.colCnt[s]++
					f.rowCnt[i]++
					f.rowCols[i] = append(f.rowCols[i], s32)
					f.fillIns++
				}
			}
			f.workCol[s] = tgt
		}
		if f.colCnt[s] > 0 {
			f.pushCol(s)
		}
	}
}

// finish closes a refactorization after the last pivot and returns the
// deficient slots.
func (f *factor) finish() []int {
	m, done := f.m, f.done
	// Columns the elimination never pivoted — numerically dependent ones
	// were flagged in pivot; structurally dependent ones (every entry in an
	// already-pivoted row, so the active count hit zero) are swept up here.
	if done < m {
		for s := 0; s < m; s++ {
			if !f.colDone[s] {
				f.deficient = append(f.deficient, s)
			}
		}
	}

	f.factNnz = 0
	for j := 0; j < done; j++ {
		f.factNnz += len(f.lops[j].nz) + len(f.ucols[j]) + 1
	}
	// Truncate the pivot arrays to the successful steps so FTRAN/BTRAN never
	// walk uninitialized tail entries (only reachable transiently: a
	// non-empty deficient return forces repair + re-factorize).
	for j := done; j < m; j++ {
		f.pr[j] = -1
	}
	return f.deficient
}

// unpivotedRows lists, in ascending order, the constraint rows the last
// factorize left without a pivot — exactly as many as the deficient slots it
// returned. Valid until the next factorize call.
func (f *factor) unpivotedRows() []int {
	var rows []int
	for i := 0; i < f.m; i++ {
		if !f.rowDone[i] {
			rows = append(rows, i)
		}
	}
	return rows
}

// markColumnInactive removes a deficient column's remaining active entries
// from the row counts so later Markowitz decisions ignore it.
func (f *factor) markColumnInactive(s int) {
	for _, nz := range f.workCol[s] {
		if !f.rowDone[nz.Index] {
			f.rowCnt[nz.Index]--
		}
	}
	f.colCnt[s] = 0
}

// update appends a PFI eta for a pivot that replaced the column basic in
// slot r, where w = FTRAN(entering column) and wnz lists w's nonzero slots.
// The caller has already verified |w[r]| is numerically safe.
func (f *factor) update(r int, w []float64, wnz []int) {
	invP := 1 / w[r] // nonzero by precondition: the caller has verified |w[r]| against the pivot tolerance before calling update
	var nz []Nonzero
	if n := len(f.etas); n < cap(f.etas) {
		// Reuse the retired eta's entry slice to avoid steady-state growth.
		nz = f.etas[:n+1][n].nz[:0]
	}
	for _, i := range wnz {
		if i == r || floats.ExactZero(w[i]) {
			continue
		}
		nz = append(nz, Nonzero{Index: i, Value: -w[i] * invP})
	}
	f.etas = append(f.etas, etaOp{pivot: r, invP: invP, nz: nz})
	f.etaNnz += len(nz) + 1
}

// ftran computes dst = B^-1 · a for a constraint-row-indexed sparse column
// a, writing the basis-slot-indexed result over all of dst. When nzOut is
// non-nil it returns the slots where dst is nonzero, in ascending order —
// the ratio test and step application iterate exactly those.
func (f *factor) ftran(dst []float64, a []Nonzero, nzOut []int) []int {
	rv := f.rv
	clear(rv)
	for _, nz := range a {
		rv[nz.Index] = nz.Value
	}
	return f.ftranLoaded(dst, nzOut)
}

// ftranDense is ftran for a dense row-indexed source vector (the
// recompute-basics residual). src and dst may not alias.
func (f *factor) ftranDense(dst, src []float64) {
	copy(f.rv, src)
	f.ftranLoaded(dst, nil)
}

// ftranLoaded runs the FTRAN chain over the row vector already staged in
// f.rv, which it destroys.
func (f *factor) ftranLoaded(dst []float64, nzOut []int) []int {
	m := f.m
	rv := f.rv

	// L pass: apply elimination multipliers in pivot order.
	for j := range f.lops {
		if f.pr[j] < 0 {
			break
		}
		op := &f.lops[j]
		t := rv[op.pivot]
		if floats.ExactZero(t) {
			continue
		}
		for _, nz := range op.nz {
			rv[nz.Index] -= nz.Value * t
		}
	}

	// U backsolve, column-oriented in reverse pivot order, scattering each
	// solved component straight into its basis slot.
	for j := m - 1; j >= 0; j-- {
		if f.pr[j] < 0 {
			continue
		}
		t := rv[f.pr[j]]
		if !floats.ExactZero(t) {
			t *= f.invP[j]
			for _, nz := range f.ucols[j] {
				rv[nz.Index] -= nz.Value * t
			}
		}
		dst[f.ps[j]] = t
	}

	// PFI update etas, in application order, in slot coordinates.
	for k := range f.etas {
		op := &f.etas[k]
		t := dst[op.pivot]
		if floats.ExactZero(t) {
			continue
		}
		dst[op.pivot] = t * op.invP
		for _, nz := range op.nz {
			dst[nz.Index] += nz.Value * t
		}
	}

	if nzOut == nil {
		return nil
	}
	nzOut = nzOut[:0]
	for i := 0; i < m; i++ {
		if !floats.ExactZero(dst[i]) {
			nzOut = append(nzOut, i)
		}
	}
	return nzOut
}

// btran computes dst = (B^-1)^T · c for a basis-slot-indexed vector c,
// writing the constraint-row-indexed result (dual prices) over all of dst.
// src and dst may not alias.
func (f *factor) btran(dst, src []float64) {
	m := f.m
	rv := f.rv
	copy(rv, src)

	// Transposed update etas, in reverse application order (slot space).
	for k := len(f.etas) - 1; k >= 0; k-- {
		op := &f.etas[k]
		t := op.invP * rv[op.pivot]
		for _, nz := range op.nz {
			t += nz.Value * rv[nz.Index]
		}
		rv[op.pivot] = t
	}

	// Permutation transpose: slot coordinates to pivot-row coordinates.
	clear(dst)
	for j := 0; j < m; j++ {
		if f.pr[j] >= 0 {
			dst[f.pr[j]] = rv[f.ps[j]]
		}
	}

	// U^T forward solve in pivot order: each column's entries reference only
	// earlier pivot rows, whose components are already final.
	for j := 0; j < m; j++ {
		if f.pr[j] < 0 {
			continue
		}
		t := dst[f.pr[j]]
		for _, nz := range f.ucols[j] {
			t -= nz.Value * dst[nz.Index]
		}
		dst[f.pr[j]] = t * f.invP[j]
	}

	// Transposed L etas in reverse pivot order.
	for j := len(f.lops) - 1; j >= 0; j-- {
		if f.pr[j] < 0 {
			continue
		}
		op := &f.lops[j]
		t := dst[op.pivot]
		for _, nz := range op.nz {
			t -= nz.Value * dst[nz.Index]
		}
		dst[op.pivot] = t
	}
}

// btranRow computes one row of B^-1 — dst = e_slot^T · B^-1, row-indexed —
// the pivot-row vector the dual ratio test and Devex weight update dot
// against nonbasic columns. It is btran with a unit source vector.
func (f *factor) btranRow(dst []float64, slot int, scratch []float64) {
	clear(scratch)
	scratch[slot] = 1
	f.btran(dst, scratch)
}
