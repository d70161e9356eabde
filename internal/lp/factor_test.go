package lp

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// denseInverse computes B^-1 for the basis columns by Gauss-Jordan
// elimination with partial pivoting — the dense reference the sparse
// factorization replaced. It returns false when the basis is singular.
func denseInverse(cols [][]Nonzero, basis []int, m int) ([]float64, bool) {
	bm := make([]float64, m*m)
	for i, c := range basis {
		for _, nz := range cols[c] {
			bm[nz.Index*m+i] = nz.Value
		}
	}
	inv := make([]float64, m*m)
	for i := 0; i < m; i++ {
		inv[i*m+i] = 1
	}
	for col := 0; col < m; col++ {
		p := col
		maxAbs := math.Abs(bm[col*m+col])
		for r := col + 1; r < m; r++ {
			if a := math.Abs(bm[r*m+col]); a > maxAbs {
				maxAbs, p = a, r
			}
		}
		if maxAbs < 1e-12 {
			return nil, false
		}
		if p != col {
			for k := 0; k < m; k++ {
				bm[p*m+k], bm[col*m+k] = bm[col*m+k], bm[p*m+k]
				inv[p*m+k], inv[col*m+k] = inv[col*m+k], inv[p*m+k]
			}
		}
		d := 1.0 / bm[col*m+col]
		for k := 0; k < m; k++ {
			bm[col*m+k] *= d
			inv[col*m+k] *= d
		}
		for r := 0; r < m; r++ {
			if r == col {
				continue
			}
			f := bm[r*m+col]
			if f == 0 {
				continue
			}
			for k := 0; k < m; k++ {
				bm[r*m+k] -= f * bm[col*m+k]
				inv[r*m+k] -= f * inv[col*m+k]
			}
		}
	}
	return inv, true
}

// randTransportCols builds the sparse column set of a randomized
// transportation-structured basis candidate: m rows, columns with 1–3
// nonzeros each (mostly ±1 coefficients, the RAS assignment structure),
// plus a full set of unit columns so a nonsingular basis always exists.
func randTransportCols(rng *rand.Rand, m, extra int) [][]Nonzero {
	cols := make([][]Nonzero, 0, m+extra)
	for i := 0; i < m; i++ {
		cols = append(cols, []Nonzero{{Index: i, Value: 1}})
	}
	for c := 0; c < extra; c++ {
		nnz := 1 + rng.Intn(3)
		seen := map[int]bool{}
		var col []Nonzero
		for k := 0; k < nnz; k++ {
			r := rng.Intn(m)
			if seen[r] {
				continue
			}
			seen[r] = true
			v := float64(1 + rng.Intn(3))
			if rng.Intn(2) == 0 {
				v = -v
			}
			col = append(col, Nonzero{Index: r, Value: v})
		}
		cols = append(cols, col)
	}
	return cols
}

// randBasis picks a random nonsingular basis over the column set by sampling
// m-subsets until the dense reference confirms invertibility, mixing
// structural and unit columns.
func randBasis(rng *rand.Rand, cols [][]Nonzero, m int) []int {
	for tries := 0; tries < 50; tries++ {
		perm := rng.Perm(len(cols))
		basis := append([]int(nil), perm[:m]...)
		if _, ok := denseInverse(cols, basis, m); ok {
			return basis
		}
	}
	// Fallback: all unit columns (always nonsingular).
	basis := make([]int, m)
	for i := range basis {
		basis[i] = i
	}
	return basis
}

// checkPattern asserts that a sparse-RHS solve agrees with the dense routine
// to 1e-12 and that its index list is exactly the nonzeros of its result, in
// ascending order.
func checkPattern(t testing.TB, what string, got, dense []float64, nz []int) {
	t.Helper()
	k := 0
	for i := range got {
		if math.Abs(got[i]-dense[i]) > 1e-12*(1+math.Abs(dense[i])) {
			t.Fatalf("%s: component %d = %g, dense routine %g", what, i, got[i], dense[i])
		}
		if got[i] != 0 {
			if k >= len(nz) || nz[k] != i {
				t.Fatalf("%s: nonzero component %d missing from the index list %v", what, i, nz)
			}
			k++
		}
	}
	if k != len(nz) {
		t.Fatalf("%s: index list %v names %d components, %d are nonzero", what, nz, len(nz), k)
	}
}

// TestFactorMatchesDenseReference cross-checks every factorization operation
// — FTRAN (sparse and dense sources), BTRAN, and pivot-row BTRAN — against
// the dense Gauss-Jordan inverse on randomized transportation-structured
// bases, including after a chain of eta updates; the sparse-RHS solves are
// also held to the dense routines and to their own nonzero lists.
func TestFactorMatchesDenseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		m := 3 + rng.Intn(30)
		cols := randTransportCols(rng, m, 3*m)
		basis := randBasis(rng, cols, m)
		inv, ok := denseInverse(cols, basis, m)
		if !ok {
			t.Fatalf("trial %d: reference basis singular", trial)
		}

		f := newFactor(m)
		if def := f.factorize(cols, basis); len(def) != 0 {
			t.Fatalf("trial %d: factorize reported deficient slots %v for a nonsingular basis", trial, def)
		}

		checkOps := func(stage string) {
			// FTRAN against B^-1·a for a few random columns.
			dst := make([]float64, m)
			nz := make([]int, 0, m)
			for k := 0; k < 5; k++ {
				c := rng.Intn(len(cols))
				nz = f.ftran(dst, cols[c], nz)
				for i := 0; i < m; i++ {
					want := 0.0
					for _, e := range cols[c] {
						want += inv[i*m+e.Index] * e.Value
					}
					if math.Abs(dst[i]-want) > 1e-7*(1+math.Abs(want)) {
						t.Fatalf("trial %d %s: ftran col %d slot %d = %g, dense %g", trial, stage, c, i, dst[i], want)
					}
				}
				// The nonzero tracking must cover every numerically nonzero slot.
				covered := map[int]bool{}
				for _, i := range nz {
					covered[i] = true
				}
				for i := 0; i < m; i++ {
					if math.Abs(dst[i]) > 1e-9 && !covered[i] {
						t.Fatalf("trial %d %s: ftran nonzero slot %d missing from tracking", trial, stage, i)
					}
				}
			}
			// Dense-source FTRAN against B^-1·v.
			src := make([]float64, m)
			for i := range src {
				src[i] = rng.NormFloat64()
			}
			f.ftranDense(dst, src)
			for i := 0; i < m; i++ {
				want := 0.0
				for k := 0; k < m; k++ {
					want += inv[i*m+k] * src[k]
				}
				if math.Abs(dst[i]-want) > 1e-7*(1+math.Abs(want)) {
					t.Fatalf("trial %d %s: ftranDense slot %d = %g, dense %g", trial, stage, i, dst[i], want)
				}
			}
			// BTRAN against v^T·B^-1.
			f.btran(dst, src)
			for k := 0; k < m; k++ {
				want := 0.0
				for i := 0; i < m; i++ {
					want += src[i] * inv[i*m+k]
				}
				if math.Abs(dst[k]-want) > 1e-7*(1+math.Abs(want)) {
					t.Fatalf("trial %d %s: btran row %d = %g, dense %g", trial, stage, k, dst[k], want)
				}
			}
			// Pivot-row BTRAN against the matching row of the dense inverse
			// and, to 1e-12, against the dense BTRAN of the same unit vector.
			unit, dense := make([]float64, m), make([]float64, m)
			for slotTrial := 0; slotTrial < 3; slotTrial++ {
				slot := rng.Intn(m)
				nz = f.btranRow(dst, slot, nz)
				for k := 0; k < m; k++ {
					want := inv[slot*m+k]
					if math.Abs(dst[k]-want) > 1e-7*(1+math.Abs(want)) {
						t.Fatalf("trial %d %s: btranRow slot %d col %d = %g, dense %g", trial, stage, slot, k, dst[k], want)
					}
				}
				clear(unit)
				unit[slot] = 1
				f.btran(dense, unit)
				checkPattern(t, "btranRow", dst, dense, nz)
			}
			// Single-column FTRAN against the dense FTRAN of the scattered column.
			for k := 0; k < 3; k++ {
				c := rng.Intn(len(cols))
				clear(unit)
				for _, e := range cols[c] {
					unit[e.Index] = e.Value
				}
				f.ftranDense(dense, unit)
				nz = f.ftran(dst, cols[c], nz)
				checkPattern(t, "ftran", dst, dense, nz)
			}
		}
		checkOps("fresh")

		// Apply a few pivots as eta updates and re-verify against a fresh
		// dense inverse of the updated basis.
		w := make([]float64, m)
		wnz := make([]int, 0, m)
		for pivots := 0; pivots < 4; pivots++ {
			c := rng.Intn(len(cols))
			in := false
			for _, b := range basis {
				if b == c {
					in = true
					break
				}
			}
			if in {
				continue
			}
			wnz = f.ftran(w, cols[c], wnz)
			// Pick the largest-magnitude slot as the pivot (always sound).
			slot, best := -1, 1e-6
			for _, i := range wnz {
				if a := math.Abs(w[i]); a > best {
					slot, best = i, a
				}
			}
			if slot == -1 {
				continue
			}
			trialBasis := append([]int(nil), basis...)
			trialBasis[slot] = c
			newInv, ok := denseInverse(cols, trialBasis, m)
			if !ok {
				continue
			}
			f.update(slot, w, wnz)
			basis, inv = trialBasis, newInv
		}
		checkOps("after-etas")
	}
}

// TestFactorSingularRepair drives a deliberately dependent basis through the
// workspace refactorization path and checks the repair machinery: the
// deficiency is detected, repaired with artificials, counted in metrics, and
// the solve still completes.
func TestFactorSingularRepair(t *testing.T) {
	// Two equality rows with identical coefficient columns: x0 appears in
	// both rows with weight 1, as does x1, so the basis {x0, x1} is singular.
	var p Problem
	x0 := p.AddVar(1, 0, 10)
	x1 := p.AddVar(1, 0, 10)
	x2 := p.AddVar(3, 0, 10)
	p.AddRow([]Nonzero{{x0, 1}, {x1, 1}, {x2, 1}}, EQ, 4)
	p.AddRow([]Nonzero{{x0, 1}, {x1, 1}, {x2, 2}}, EQ, 6)

	sol := solveCold(&p)
	if sol.Status != Optimal {
		t.Fatalf("status %v, want optimal", sol.Status)
	}
	// Unique solution: x2 = 2, x0 + x1 = 2 (cost ties broken by pivoting).
	if got := sol.X[0] + sol.X[1]; math.Abs(got-2) > 1e-6 {
		t.Fatalf("x0+x1 = %v, want 2", got)
	}
	if math.Abs(sol.X[2]-2) > 1e-6 {
		t.Fatalf("x2 = %v, want 2", sol.X[2])
	}

	// Force a singular refactorization directly: install the dependent basis
	// {x0, x1} in a workspace and refactorize.
	ws := NewWorkspace()
	ws.reshape(&p)
	ws.refresh(&p)
	for j := range ws.inRow {
		ws.inRow[j] = -1
	}
	ws.basis[0], ws.basis[1] = x0, x1
	ws.inRow[x0], ws.inRow[x1] = 0, 1
	clear(ws.x)
	clear(ws.atUp)
	if !ws.refactorize() {
		t.Fatal("refactorize failed to repair a structurally repairable basis")
	}
	if !ws.repaired {
		t.Fatal("repair flag not set after singular refactorization")
	}
	// Exactly one of the dependent columns must have been swapped for an
	// artificial.
	arts := 0
	for _, c := range ws.basis {
		if c >= ws.artStart {
			arts++
		}
	}
	if arts != 1 {
		t.Fatalf("repaired basis holds %d artificials, want 1 (basis %v, artStart %d)", arts, ws.basis, ws.artStart)
	}
}

// TestStatusSingularString pins the new status's rendering.
func TestStatusSingularString(t *testing.T) {
	if got := Singular.String(); got != "singular-basis" {
		t.Fatalf("Singular.String() = %q", got)
	}
}

// factorizeLinearScan is factorize with the pivot column chosen the way it
// was before the heap: rescan every slot for the fewest active nonzeros,
// ties to the lowest slot. It is the reference the heap must reproduce pivot
// for pivot.
func (f *factor) factorizeLinearScan(cols [][]Nonzero, basis []int) []int {
	f.load(cols, basis)
	for {
		cs := -1
		var csCnt int32
		for s := 0; s < f.m; s++ {
			if f.colDone[s] || f.colCnt[s] == 0 {
				continue
			}
			if cs == -1 || f.colCnt[s] < csCnt {
				cs, csCnt = s, f.colCnt[s]
			}
		}
		if cs == -1 {
			break
		}
		f.pivot(cs)
	}
	return f.finish()
}

// sameFactors asserts that two factorizations of one basis took the same
// pivots in the same order and produced bit-equal L and U.
func sameFactors(t *testing.T, label string, got, want *factor, gotDef, wantDef []int) {
	t.Helper()
	if len(gotDef)+len(wantDef) > 0 && !reflect.DeepEqual(gotDef, wantDef) {
		t.Fatalf("%s: deficient slots %v, reference %v", label, gotDef, wantDef)
	}
	if !reflect.DeepEqual(got.pr, want.pr) || !reflect.DeepEqual(got.ps, want.ps) {
		t.Fatalf("%s: pivot sequence differs from the linear scan\nrows  %v\nwant  %v\nslots %v\nwant  %v",
			label, got.pr, want.pr, got.ps, want.ps)
	}
	for j := 0; j < got.m && got.pr[j] >= 0; j++ {
		if math.Float64bits(got.invP[j]) != math.Float64bits(want.invP[j]) {
			t.Fatalf("%s: step %d: 1/pivot %v, reference %v", label, j, got.invP[j], want.invP[j])
		}
		if !reflect.DeepEqual(got.lcols[j], want.lcols[j]) || !reflect.DeepEqual(got.ucols[j], want.ucols[j]) {
			t.Fatalf("%s: step %d: L/U entries differ from the reference", label, j)
		}
	}
}

// TestFactorHeapMatchesLinearScan: the heap-driven pivot-column choice must
// be the linear scan's, pivot for pivot, on random sparse bases — singular
// ones included — and on a basis captured mid-search from the benchmark's
// cold_solve region-wide model (273 rows).
func TestFactorHeapMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 200; trial++ {
		m := 2 + rng.Intn(60)
		cols := randTransportCols(rng, m, 4*m)
		// An unscreened random column subset: roughly half are singular,
		// which exercises both kinds of deficient slot.
		basis := rng.Perm(len(cols))[:m]
		heap, ref := newFactor(m), newFactor(m)
		// Factorize twice so the second pass runs on reused buffers.
		for pass := 0; pass < 2; pass++ {
			gotDef := append([]int(nil), heap.factorize(cols, basis)...)
			wantDef := append([]int(nil), ref.factorizeLinearScan(cols, basis)...)
			sameFactors(t, "random basis", heap, ref, gotDef, wantDef)
		}
	}

	m, cols := loadFixture(t)
	basis := make([]int, m)
	for s := range basis {
		basis[s] = s
	}
	heap, ref := newFactor(m), newFactor(m)
	gotDef := heap.factorize(cols, basis)
	if len(gotDef) != 0 {
		t.Fatalf("captured basis reported deficient slots %v", gotDef)
	}
	sameFactors(t, "captured RAS basis", heap, ref, gotDef, ref.factorizeLinearScan(cols, basis))
}
