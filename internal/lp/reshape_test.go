package lp

import (
	"context"
	"math/rand"
	"testing"
)

// checkReshapeMatchesFresh solves a seeded sequence of problems on one
// workspace carried from problem to problem, and each problem again on a new
// workspace, and requires the same solutions and counters after every solve.
// The sequence grows and shrinks the shape, keeps the shape with other rows,
// and rebuilds one Problem value in place at its own shape (Reset), which
// only the problem's generation tells apart; its rows include equalities.
// Each problem is solved from a start — none, a basis the carried workspace
// exported for the previous problem of the same shape, or random statuses —
// then re-solved from the retained basis after a few bound edits.
func checkReshapeMatchesFresh(t testing.TB, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	carried := NewWorkspace()
	var p *Problem // the carried side's problem
	var last *Basis
	nVars, nRows, fixture := 0, 0, false
	for k := 0; k < 8; k++ {
		inPlace := false
		switch step := rng.Intn(4); {
		case k == 0 || step == 0: // a new shape, larger or smaller
			nVars, nRows, fixture = 4+rng.Intn(28), 2+rng.Intn(16), rng.Intn(4) == 0
		case step == 1 || fixture: // the same shape, another problem
		default: // the same shape, the same problem value rebuilt
			inPlace = true
		}
		problemSeed := seed*1000 + int64(k)
		build := func(into *Problem) *Problem {
			if fixture { // the LP around the captured RAS basis: hundreds of rows, several pricing blocks
				return fixtureLP(t, problemSeed)
			}
			return addSparseBoxedLP(into, rand.New(rand.NewSource(problemSeed)), nVars, nRows)
		}
		if inPlace {
			p.Reset()
			build(p)
		} else {
			p = build(&Problem{})
		}
		q := build(&Problem{}) // the fresh side's copy
		nVars, nRows = p.NumVars(), p.NumRows()

		var start *Basis
		switch rng.Intn(3) {
		case 0:
			if last != nil && last.NumCols() == nVars && last.NumRows() == nRows {
				start = last
			}
		case 1:
			start = NewBasis(nVars, nRows)
			for j := 0; j < nVars; j++ {
				start.SetCol(j, BasisStatus(rng.Intn(3)))
			}
		}
		fresh := NewWorkspace()
		carried.ResetStats()
		for solve := 0; solve < 3; solve++ {
			opt := Options{Start: start}
			if solve > 0 {
				opt = Options{ReuseBasis: true}
				for e := 0; e <= rng.Intn(3); e++ {
					j := rng.Intn(nVars)
					lo, up := p.Bounds(j)
					v := lo + float64(rng.Intn(int(up-lo)+1))
					p.SetBounds(j, v, v)
					q.SetBounds(j, v, v)
				}
			}
			got := p.SolveWith(context.Background(), opt, carried)
			want := q.SolveWith(context.Background(), opt, fresh)
			if !sameSolution(got, want) || carried.Stats() != fresh.Stats() {
				t.Fatalf("seed %d problem %d (%d×%d, in place %v) solve %d: carried workspace %v %.17g in %d iterations (%+v), new one %v %.17g in %d iterations (%+v)",
					seed, k, nVars, nRows, inPlace, solve, got.Status, got.Objective, got.Iterations, carried.Stats(),
					want.Status, want.Objective, want.Iterations, fresh.Stats())
			}
		}
		if b := carried.Basis(); b != nil {
			last = b
		}
	}
}

// TestReshapeMatchesFresh: a workspace retargeted to another problem — or to
// the same problem rebuilt — reuses its storage and solves exactly as a new
// workspace does, to the bit.
func TestReshapeMatchesFresh(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		checkReshapeMatchesFresh(t, seed)
	}
}

// FuzzReshapeMatchesFresh is TestReshapeMatchesFresh over any seed.
func FuzzReshapeMatchesFresh(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 7} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkReshapeMatchesFresh(t, seed)
	})
}
