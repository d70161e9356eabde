package lp

import (
	"math"
	"math/bits"
	"slices"

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
// the sparse upper-triangular factor, S the pivot-order-to-basis-slot
// permutation, and E_i the update etas appended by pivots. FTRAN applies the
// chain left-to-right to map a constraint-row vector to basis-slot
// coordinates (B^-1·a); BTRAN applies the transposed chain in reverse to map
// slot coordinates to row coordinates (c^T·B^-1).
//
// L and U are stored in elimination-step coordinates — an entry's index is
// the step that pivoted its row, not the row — so every triangular solve runs
// over one vector indexed by step, permuted in from rows or slots and out
// again. Each solve exists twice. The dense pair (ftranDense, btran) walks all
// m steps and serves dense right-hand sides: the basic values, the basic
// costs. The sparse pair (ftran of one column, btranRow of one unit vector) is
// what an iteration pays: it visits only the steps its right-hand side
// reaches, kept as a bitset over steps that is walked a word at a time, and
// returns the nonzero pattern of the result as an ascending index list. A
// visit is a zero test of the step's pivot component and a scatter, never a
// gather, because both transposes are at hand: L and U column-wise (lcols,
// ucols) scatter forward in FTRAN, their row-wise copies (lrows, urows, built
// during the refactorization) scatter forward in BTRAN, and slotEtas says
// which update etas a slot can reach without reading them.
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

	// maxEtas caps the eta file whatever the configured cadence: slotEtas
	// keeps one bit per update eta in a 64-bit word.
	maxEtas = 64

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

// etaOp is one PFI update eta: the identity with column pivot replaced, so
// that applying it scales the pivot component by invP and adds multiples of
// it elsewhere. It operates on basis-slot coordinates. Its off-pivot entries
// (Index = slot, Value = coefficient) are etaNz[start:end] of its factor.
type etaOp struct {
	pivot      int     // slot the eta pivots on
	invP       float64 // 1/pivot value
	start, end int32
}

// bitset is a fixed-size set of small integers: the worklist and the result
// pattern of the sparse solves, and the singleton queue of the
// refactorization.
type bitset []uint64

func (b bitset) set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

// drainAscending appends the members i of b with v[i] nonzero to out, in
// ascending order, and empties b.
func (b bitset) drainAscending(v []float64, out []int) []int {
	for w, word := range b {
		for ; word != 0; word &= word - 1 {
			if i := w<<6 | bits.TrailingZeros64(word); !floats.ExactZero(v[i]) {
				out = append(out, i)
			}
		}
		b[w] = 0
	}
	return out
}

// rowwise is a compressed row-wise copy of the L or the U factor: the entries
// of step j are ents[start[j]:start[j+1]], Index naming the step of the column
// they came from.
type rowwise struct {
	start []int32
	ents  []Nonzero
}

func (r *rowwise) of(j int) []Nonzero { return r.ents[r.start[j]:r.start[j+1]] }

// transpose rebuilds r from the first done columns of L or U, total entries
// in all, in step coordinates.
func (r *rowwise) transpose(cols [][]Nonzero, done, total int) {
	start := r.start
	clear(start)
	if total == 0 {
		return
	}
	for _, col := range cols[:done] {
		for _, nz := range col {
			start[nz.Index+1]++
		}
	}
	for j := 0; j < done; j++ {
		start[j+1] += start[j]
	}
	if cap(r.ents) < total {
		r.ents = make([]Nonzero, total+total/2)
	}
	ents := r.ents[:total]
	for c, col := range cols[:done] {
		for _, nz := range col {
			ents[start[nz.Index]] = Nonzero{Index: c, Value: nz.Value}
			start[nz.Index]++
		}
	}
	// Filling advanced every start to its row's end, which is the next row's
	// start: shift back by one row.
	copy(start[1:], start[:done])
	start[0] = 0
}

// factor is a sparse factorization of the current simplex basis. It is
// rebuilt in place by factorize and extended by update; all storage is
// retained across refactorizations so the steady state allocates nothing, and
// across reset, so a workspace retargeted to another problem reuses it too.
type factor struct {
	m int

	// LU refactorization product, in elimination order j = 0..done-1. Step j
	// pivoted row pr[j] of the column in basis slot ps[j], with reciprocal
	// pivot invP[j]; rowStep and slotStep are the inverse maps (-1 for a row
	// or slot no step pivoted). lcols[j] holds the unit elimination
	// multipliers of step j (entries at later steps), ucols[j] the U column
	// of the j-th pivot (entries at earlier steps), both in the arena luNz,
	// step after step; lrows and urows are the same entries by row, in
	// ascending column order, transposed at the end (L's rows have no step
	// until then). lsteps marks the steps whose lcols is not empty:
	// near-triangular bases leave it almost empty, and FTRAN's L pass visits
	// nothing else.
	lcols    [][]Nonzero
	ucols    [][]Nonzero
	luNz     []Nonzero
	lrows    rowwise
	urows    rowwise
	lsteps   bitset
	pr       []int
	ps       []int
	invP     []float64
	rowStep  []int32
	slotStep []int32

	// PFI update etas appended by pivots since the last refactorization,
	// operating on basis-slot coordinates, their entries back to back in one
	// arena that a refactorization empties and the next etas refill. Bit k of
	// slotEtas[s] is set when eta k pivots on slot s or has an entry there.
	etas     []etaOp
	etaNz    []Nonzero
	etaNnz   int
	slotEtas []uint64

	factNnz int // nonzeros stored in L + U at the last refactorization

	// Scratch of the solves, all zero between calls.
	pv      []float64 // step-coordinate working vector
	sv      []float64 // slot-coordinate working vector (BTRAN sources)
	steps   bitset    // steps a sparse solve has reached
	pattern bitset    // slots or rows where a sparse solve's result may be nonzero
	reached []int     // slots btranRow's eta pass made nonzero

	// Scratch of the refactorization.
	workCol [][]Nonzero
	rowCols [][]int32 // row -> slots with a (possibly stale) entry, in rowBuf
	rowBuf  []int32
	rowCnt  []int32 // active nonzeros per row
	colCnt  []int32 // active nonzeros per column slot
	rowDone []bool
	colDone []bool
	pos     []int32 // scatter index: row -> position in the column being updated
	posEra  []int32 // epoch marks validating pos entries
	era     int32
	nzbuf   []Nonzero // the working columns, then spare room for their fill-in

	// State of the refactorization in progress (load → pivot… → finish).
	singles    bitset   // slots whose column has one active entry (lazily deleted)
	singlesLow int      // no member of singles lies in a word below this one
	colHeap    []uint64 // pivot-column queue of everything else, see pushCol
	heapBuilt  bool
	done       int // pivots recorded so far
	fillIns    int
	deficient  []int // slots found unpivotable
	unpivoted  []int // unpivotedRows' list
}

// reset sizes the factorization for an m-row basis and empties it, as new as
// a zero factor sized for m: it holds no factors until the next factorize
// call. Storage is kept wherever it has room, and so are the entry slices of
// the L, U and working columns, which every refactorization truncates before
// it fills them.
func (f *factor) reset(m int) {
	words := (m + 63) / 64
	f.m = m
	f.lcols = regrow(f.lcols, m)
	f.ucols = regrow(f.ucols, m)
	f.lrows.start = resize(f.lrows.start, m+1)
	f.urows.start = resize(f.urows.start, m+1)
	f.lsteps = resize(f.lsteps, words)
	f.pr = resize(f.pr, m)
	f.ps = resize(f.ps, m)
	f.invP = resize(f.invP, m)
	f.rowStep = resize(f.rowStep, m)
	f.slotStep = resize(f.slotStep, m)
	f.etas = f.etas[:0]
	f.etaNz = f.etaNz[:0]
	f.etaNnz = 0
	f.slotEtas = resize(f.slotEtas, m)
	f.factNnz = 0
	f.pv = resize(f.pv, m)
	f.sv = resize(f.sv, m)
	f.steps = resize(f.steps, words)
	f.pattern = resize(f.pattern, words)
	f.workCol = regrow(f.workCol, m)
	f.rowCols = regrow(f.rowCols, m)
	f.rowCnt = resize(f.rowCnt, m)
	f.colCnt = resize(f.colCnt, m)
	f.rowDone = resize(f.rowDone, m)
	f.colDone = resize(f.colDone, m)
	f.pos = resize(f.pos, m)
	f.posEra = resize(f.posEra, m)
	f.era = 0
	f.singles = resize(f.singles, words)
	f.done = 0
}

// resize returns s with length n and every element zero, in s's own storage
// when it has room; when it has none, the storage grows as append grows it.
func resize[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// regrow returns s with length n, keeping the slices it holds — and their
// storage — in place; every user truncates an element before it fills it.
func regrow[T any](s [][]T, n int) [][]T {
	return slices.Grow(s[:cap(s)], max(0, n-cap(s)))[:n]
}

// needRefactor reports whether the deterministic refactorization policy
// asks for a rebuild before the next pivot is applied: the eta file reached
// the cadence limit, or eta fill outgrew the factorization itself.
func (f *factor) needRefactor(every int) bool {
	if len(f.etas) >= min(every, maxEtas) {
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
// index and the set of singleton columns. Columns are copied because
// elimination mutates them; the arena and per-slot slices are reused across
// calls.
func (f *factor) load(cols [][]Nonzero, basis []int) {
	m := f.m
	f.etas = f.etas[:0]
	f.etaNz = f.etaNz[:0]
	f.etaNnz = 0
	clear(f.slotEtas)
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
	// L and U together hold what the basis columns hold but their pivots, and
	// the fill-in. Sized with room to spare, as the arenas here are, so that
	// the next bases, which are a little larger, fit too.
	if cap(f.luNz) < nnzTotal {
		f.luNz = make([]Nonzero, 0, 2*nnzTotal)
	}
	f.luNz = f.luNz[:0]
	arena := f.nzbuf[:0]
	for i := 0; i < m; i++ {
		f.rowCnt[i] = 0
		f.rowStep[i] = -1
		f.slotStep[i] = -1
		f.rowDone[i] = false
		f.colDone[i] = false
	}
	clear(f.singles)
	f.singlesLow = 0
	f.colHeap = f.colHeap[:0]
	f.heapBuilt = false
	for s := 0; s < m; s++ {
		if basis[s] >= 0 {
			for _, nz := range cols[basis[s]] {
				f.rowCnt[nz.Index]++
			}
		}
	}
	// Each row's slots, in slot order, with room for one fill-in; the spare
	// part takes the rows that get more (roomIn).
	if cap(f.rowBuf) < nnzTotal+m {
		f.rowBuf = make([]int32, 0, 2*(nnzTotal+m))
	}
	f.rowBuf = f.rowBuf[:nnzTotal+m]
	at := int32(0)
	for i := 0; i < m; i++ {
		end := at + f.rowCnt[i] + 1
		f.rowCols[i] = f.rowBuf[at:at:end]
		at = end
	}
	for s := 0; s < m; s++ {
		var src []Nonzero
		if basis[s] >= 0 {
			src = cols[basis[s]]
		}
		start := len(arena)
		arena = append(arena, src...)
		f.workCol[s] = arena[start:len(arena):len(arena)]
		f.colCnt[s] = int32(len(src))
		if len(src) == 1 {
			f.singles.set(s)
		}
		for _, nz := range src {
			f.rowCols[nz.Index] = append(f.rowCols[nz.Index], int32(s))
		}
	}
	f.nzbuf = arena
}

// roomIn returns s, a column or a row's slots carved from arena, with room
// for one more element: moved to the spare part of the arena at twice its
// size when it has none (fill-in is rare, and a column or row that takes one
// usually takes more).
func roomIn[T any](s []T, arena *[]T) []T {
	if len(s) < cap(s) {
		return s
	}
	need := 2*len(s) + 2
	used := len(*arena)
	if used+need > cap(*arena) {
		return append(make([]T, 0, need), s...)
	}
	*arena = (*arena)[:used+need]
	return append((*arena)[used:used:used+need], s...)
}

// The pivot-column queue answers "fewest active nonzeros, ties to the lowest
// slot" — the Markowitz column rule — in two tiers. Singleton columns, which
// are nearly all of a RAS basis (2.3 stored nonzeros per column, no fill),
// sit in a bitset and come off it lowest slot first: peeling that triangle
// costs no heap traffic at all. Everything else waits in a binary min-heap of
// (active count, slot) keys packed count<<32|slot, built only when the
// singletons first run out, from whatever they left. Deletion is lazy in both
// tiers: a column's count changing queues it afresh and leaves the old entry
// behind, and popMinCol discards entries that no longer match their column.
// Rescanning all slots for every pivot instead was O(m²) per refactorization:
// 1.97 s of the 2.32 s factorize took on the benchmark's failure_churn
// profile.

// requeue files slot s, whose active count just changed, under the new count.
func (f *factor) requeue(s int) {
	switch {
	case f.colCnt[s] == 1:
		f.singles.set(s)
		f.singlesLow = min(f.singlesLow, s>>6)
	case f.colCnt[s] > 1 && f.heapBuilt:
		f.pushCol(s)
	}
}

// pushCol queues slot s on the heap under its current active count.
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
	for w := f.singlesLow; w < len(f.singles); w++ {
		for f.singles[w] != 0 {
			s := w<<6 | bits.TrailingZeros64(f.singles[w])
			f.singles[w] &= f.singles[w] - 1
			if !f.colDone[s] && f.colCnt[s] == 1 {
				f.singlesLow = w
				return s
			}
		}
	}
	f.singlesLow = len(f.singles)
	if !f.heapBuilt {
		f.heapBuilt = true
		for s := 0; s < f.m; s++ {
			if !f.colDone[s] && f.colCnt[s] > 1 {
				f.pushCol(s)
			}
		}
	}
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
	// pivoted rows, named by the step that pivoted them; L multipliers are its
	// values in still-active rows, named by row until finish knows their
	// steps.
	j := f.done
	f.pr[j] = pivRow
	f.ps[j] = cs
	f.rowStep[pivRow] = int32(j)
	f.slotStep[cs] = int32(j)
	f.invP[j] = 1 / pivVal // nonzero: pivVal passed the Markowitz screen |v| >= pivRelTol*colMax with colMax >= pivAbsTol
	lu := f.luNz
	at := len(lu)
	for _, nz := range col {
		if nz.Index != pivRow && f.rowDone[nz.Index] && !floats.ExactZero(nz.Value) {
			lu = append(lu, Nonzero{Index: int(f.rowStep[nz.Index]), Value: nz.Value})
		}
	}
	ue := lu[at:len(lu):len(lu)]
	at = len(lu)
	for _, nz := range col {
		if nz.Index != pivRow && !f.rowDone[nz.Index] {
			if !floats.ExactZero(nz.Value) {
				lu = append(lu, Nonzero{Index: nz.Index, Value: nz.Value * f.invP[j]})
			}
			f.rowCnt[nz.Index]--
		}
	}
	le := lu[at:len(lu):len(lu)]
	f.luNz = lu
	f.ucols[j] = ue
	f.lcols[j] = le
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
					tgt = append(roomIn(tgt, &f.nzbuf), Nonzero{Index: i, Value: -delta})
					f.pos[i] = int32(len(tgt) - 1)
					f.posEra[i] = era
					f.colCnt[s]++
					f.rowCnt[i]++
					f.rowCols[i] = append(roomIn(f.rowCols[i], &f.rowBuf), s32)
					f.fillIns++
				}
			}
			f.workCol[s] = tgt
		}
		f.requeue(s)
	}
}

// finish closes a refactorization after the last pivot: it sweeps up the
// columns no step pivoted, renames the recorded L entries from rows to the
// steps that pivoted them, builds L's row-wise copy, and returns the deficient
// slots.
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

	clear(f.lsteps)
	f.factNnz = 0
	lnnz, unnz := 0, 0
	for j := 0; j < done; j++ {
		// A multiplier in a row nothing pivoted (a deficient factorization,
		// unusable until repaired) has no step to act on and is dropped.
		le := f.lcols[j][:0]
		for _, nz := range f.lcols[j] {
			if step := f.rowStep[nz.Index]; step >= 0 {
				le = append(le, Nonzero{Index: int(step), Value: nz.Value})
			}
		}
		f.lcols[j] = le
		if len(le) > 0 {
			f.lsteps.set(j)
			lnnz += len(le)
		}
		unnz += len(f.ucols[j])
		f.factNnz += len(le) + len(f.ucols[j]) + 1
	}
	f.lrows.transpose(f.lcols, done, lnnz)
	f.urows.transpose(f.ucols, done, unnz)
	// The solves stop at done; the marks say where the pivot sequence ends to
	// whoever reads pr whole.
	for j := done; j < m; j++ {
		f.pr[j] = -1
	}
	return f.deficient
}

// unpivotedRows lists, in ascending order, the constraint rows the last
// factorize left without a pivot — exactly as many as the deficient slots it
// returned. The list is the factor's, valid until the next call.
func (f *factor) unpivotedRows() []int {
	rows := f.unpivoted[:0]
	for i := 0; i < f.m; i++ {
		if !f.rowDone[i] {
			rows = append(rows, i)
		}
	}
	f.unpivoted = rows
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
	k := len(f.etas)
	bit := uint64(1) << uint(k) // k < maxEtas: needRefactor rebuilds before the file outgrows the word
	f.slotEtas[r] |= bit
	start := len(f.etaNz)
	nz := f.etaNz
	if cap(nz)-start < len(wnz) {
		// At least double: append's quarter steps would allocate a new
		// factorization's arena several times over on its way up.
		nz = slices.Grow(nz, max(len(wnz), cap(nz)))
	}
	for _, i := range wnz {
		if i == r || floats.ExactZero(w[i]) {
			continue
		}
		nz = append(nz, Nonzero{Index: i, Value: -w[i] * invP})
		f.slotEtas[i] |= bit
	}
	f.etaNz = nz
	f.etas = append(f.etas, etaOp{pivot: r, invP: invP, start: int32(start), end: int32(len(nz))})
	f.etaNnz += len(nz) - start + 1
}

// entries lists the off-pivot entries of eta op.
func (f *factor) entries(op *etaOp) []Nonzero { return f.etaNz[op.start:op.end] }

// applyEtas runs the update etas, in application order, over the
// slot-coordinate vector v — the last leg of both FTRANs.
func (f *factor) applyEtas(v []float64) {
	for k := range f.etas {
		op := &f.etas[k]
		t := v[op.pivot]
		if floats.ExactZero(t) {
			continue
		}
		v[op.pivot] = t * op.invP
		for _, nz := range f.entries(op) {
			v[nz.Index] += nz.Value * t
		}
	}
}

// ftran computes dst = B^-1 · a for a constraint-row-indexed sparse column a,
// writing the basis-slot-indexed result over all of dst, and returns the slots
// where dst is nonzero, in ascending order, appended to nzOut[:0] — the ratio
// test and step application iterate exactly those. Only the elimination steps
// the column reaches are visited.
func (f *factor) ftran(dst []float64, a []Nonzero, nzOut []int) []int {
	pv, steps := f.pv, f.steps
	clear(dst)
	for _, nz := range a {
		if j := f.rowStep[nz.Index]; j >= 0 {
			pv[j] = nz.Value
			steps.set(int(j))
		}
	}

	// L pass, upward through the reached steps that have multipliers; the
	// steps they reach lie above and stay marked for the U pass.
	for w := range steps {
		var seen uint64
		for {
			todo := steps[w] & f.lsteps[w] &^ seen
			if todo == 0 {
				break
			}
			b := bits.TrailingZeros64(todo)
			seen |= 1 << uint(b)
			j := w<<6 | b
			t := pv[j]
			if floats.ExactZero(t) {
				continue
			}
			for _, nz := range f.lcols[j] {
				pv[nz.Index] -= nz.Value * t
				steps.set(nz.Index)
			}
		}
	}

	// U backsolve, downward: each solved component goes straight to its basis
	// slot and scatters into the steps below it.
	pattern := f.pattern
	for w := len(steps) - 1; w >= 0; w-- {
		for steps[w] != 0 {
			b := bits.Len64(steps[w]) - 1
			steps[w] &^= 1 << uint(b)
			j := w<<6 | b
			t := pv[j]
			if floats.ExactZero(t) {
				continue
			}
			pv[j] = 0
			t *= f.invP[j]
			for _, nz := range f.ucols[j] {
				pv[nz.Index] -= nz.Value * t
				steps.set(nz.Index)
			}
			dst[f.ps[j]] = t
			pattern.set(f.ps[j])
		}
	}

	// Update etas, as applyEtas runs them, recording the slots they fill.
	for k := range f.etas {
		op := &f.etas[k]
		t := dst[op.pivot]
		if floats.ExactZero(t) {
			continue
		}
		dst[op.pivot] = t * op.invP
		for _, nz := range f.entries(op) {
			dst[nz.Index] += nz.Value * t
			pattern.set(nz.Index)
		}
	}
	return pattern.drainAscending(dst, nzOut[:0])
}

// ftranDense is ftran for a dense row-indexed source vector (the
// recompute-basics residual), walking every step. src and dst may not alias.
func (f *factor) ftranDense(dst, src []float64) {
	pv, done := f.pv, f.done
	for j := 0; j < done; j++ {
		pv[j] = src[f.pr[j]]
	}
	for j := 0; j < done; j++ {
		t := pv[j]
		if floats.ExactZero(t) {
			continue
		}
		for _, nz := range f.lcols[j] {
			pv[nz.Index] -= nz.Value * t
		}
	}
	for j := done - 1; j >= 0; j-- {
		t := pv[j]
		if !floats.ExactZero(t) {
			t *= f.invP[j]
			for _, nz := range f.ucols[j] {
				pv[nz.Index] -= nz.Value * t
			}
		}
		dst[f.ps[j]] = t
		pv[j] = 0
	}
	f.applyEtas(dst)
}

// btran computes dst = (B^-1)^T · c for a dense basis-slot-indexed vector c
// (the basic costs), writing the constraint-row-indexed result (dual prices)
// over all of dst and walking every step. src and dst may not alias.
func (f *factor) btran(dst, src []float64) {
	pv, sv, done := f.pv, f.sv, f.done
	copy(sv, src)

	// Transposed update etas, in reverse application order (slot space).
	for k := len(f.etas) - 1; k >= 0; k-- {
		op := &f.etas[k]
		t := op.invP * sv[op.pivot]
		for _, nz := range f.entries(op) {
			t += nz.Value * sv[nz.Index]
		}
		sv[op.pivot] = t
	}
	for j := 0; j < done; j++ {
		pv[j] = sv[f.ps[j]]
	}
	clear(sv)

	// U^T forward solve in pivot order: each column's entries reference only
	// earlier steps, whose components are already final.
	for j := 0; j < done; j++ {
		t := pv[j]
		for _, nz := range f.ucols[j] {
			t -= nz.Value * pv[nz.Index]
		}
		pv[j] = t * f.invP[j]
	}

	// Transposed L etas in reverse pivot order, then out to rows.
	clear(dst)
	for j := done - 1; j >= 0; j-- {
		t := pv[j]
		for _, nz := range f.lcols[j] {
			t -= nz.Value * pv[nz.Index]
		}
		pv[j] = t
		dst[f.pr[j]] = t
	}
	clear(pv)
}

// btranRow computes one row of B^-1 — dst = e_slot^T · B^-1, row-indexed —
// the pivot-row vector of an iteration, and returns the rows where it is
// nonzero, ascending, appended to nzOut[:0]. It is btran of a unit vector
// turned inside out: every leg scatters from the components that are nonzero
// instead of gathering into every component, so the cost follows the result's
// nonzeros, not the factor's.
func (f *factor) btranRow(dst []float64, slot int, nzOut []int) []int {
	pv, sv, steps := f.pv, f.sv, f.steps
	clear(dst)

	// Transposed update etas, newest first. An eta changes sv only at its
	// pivot slot, and only if sv is already nonzero somewhere it touches, so
	// the etas still to visit are the union of slotEtas over the slots made
	// nonzero so far, below the eta in hand.
	sv[slot] = 1
	reached := append(f.reached[:0], slot)
	for todo := f.slotEtas[slot]; todo != 0; {
		k := bits.Len64(todo) - 1
		todo &^= 1 << uint(k)
		op := &f.etas[k]
		old := sv[op.pivot]
		t := op.invP * old
		for _, nz := range f.entries(op) {
			t += nz.Value * sv[nz.Index]
		}
		sv[op.pivot] = t
		if floats.ExactZero(old) && !floats.ExactZero(t) {
			reached = append(reached, op.pivot)
			todo |= f.slotEtas[op.pivot] & (1<<uint(k) - 1)
		}
	}
	f.reached = reached
	for _, s := range reached {
		// A slot cancelled to zero and reached again is listed twice; the
		// first visit takes its value.
		if t := sv[s]; !floats.ExactZero(t) {
			sv[s] = 0
			if j := f.slotStep[s]; j >= 0 {
				pv[j] = t
				steps.set(int(j))
			}
		}
	}

	// U^T forward solve, upward: a final component scatters along its row of
	// U into the later steps.
	for w := range steps {
		var seen uint64
		for {
			todo := steps[w] &^ seen
			if todo == 0 {
				break
			}
			b := bits.TrailingZeros64(todo)
			seen |= 1 << uint(b)
			j := w<<6 | b
			t := pv[j]
			if floats.ExactZero(t) {
				continue
			}
			t *= f.invP[j]
			pv[j] = t
			for _, nz := range f.urows.of(j) {
				pv[nz.Index] -= nz.Value * t
				steps.set(nz.Index)
			}
		}
	}

	// Transposed L etas, downward, and out to rows.
	pattern := f.pattern
	for w := len(steps) - 1; w >= 0; w-- {
		for steps[w] != 0 {
			b := bits.Len64(steps[w]) - 1
			steps[w] &^= 1 << uint(b)
			j := w<<6 | b
			t := pv[j]
			if floats.ExactZero(t) {
				continue
			}
			pv[j] = 0
			for _, nz := range f.lrows.of(j) {
				pv[nz.Index] -= nz.Value * t
				steps.set(nz.Index)
			}
			dst[f.pr[j]] = t
			pattern.set(f.pr[j])
		}
	}
	return pattern.drainAscending(dst, nzOut[:0])
}
