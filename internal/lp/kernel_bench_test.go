package lp

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"testing"
)

// loadFixture reads testdata/ras_basis.json: a basis captured mid-search from
// the benchmark's cold_solve region-wide model (273 rows), one sparse column
// per basis slot.
func loadFixture(tb testing.TB) (m int, cols [][]Nonzero) {
	tb.Helper()
	raw, err := os.ReadFile("testdata/ras_basis.json")
	if err != nil {
		tb.Fatal(err)
	}
	var fixture struct {
		M       int
		Columns [][][2]float64 // per basis slot: (row, value) pairs
	}
	if err := json.Unmarshal(raw, &fixture); err != nil {
		tb.Fatal(err)
	}
	cols = make([][]Nonzero, len(fixture.Columns))
	for s, col := range fixture.Columns {
		for _, e := range col {
			cols[s] = append(cols[s], Nonzero{Index: int(e[0]), Value: e[1]})
		}
	}
	return fixture.M, cols
}

// fixtureLP builds a boxed LP with the sparsity of a RAS model around the
// captured basis: every fixture column twice over as a structural variable
// (second copies shifted one row down, so the two are not parallel), integer
// costs, boxes [0, 4], and a mix of ≤, = and ≥ rows whose right-hand sides
// make a random interior point feasible.
func fixtureLP(tb testing.TB, seed int64) *Problem {
	m, cols := loadFixture(tb)
	rng := rand.New(rand.NewSource(seed))
	p := &Problem{}
	rows := make([][]Nonzero, m)
	lhs := make([]float64, m)
	for copyNo := 0; copyNo < 2; copyNo++ {
		for _, col := range cols {
			j := p.AddVar(float64(rng.Intn(9)-2), 0, 4)
			x := 4 * rng.Float64()
			for _, nz := range col {
				i := (nz.Index + copyNo) % m
				rows[i] = append(rows[i], Nonzero{Index: j, Value: nz.Value})
				lhs[i] += nz.Value * x
			}
		}
	}
	for i, row := range rows {
		switch i % 3 {
		case 0:
			p.AddRow(row, LE, lhs[i]+rng.Float64())
		case 1:
			p.AddRow(row, GE, lhs[i]-rng.Float64())
		default:
			p.AddRow(row, EQ, lhs[i])
		}
	}
	return p
}

// fixtureWorkspace returns the fixture LP solved to optimality in a workspace
// that retains the optimal basis and its fresh factorization.
func fixtureWorkspace(tb testing.TB) (*Problem, *Workspace) {
	p := fixtureLP(tb, 1)
	ws := NewWorkspace()
	if sol := p.SolveWith(context.Background(), Options{ReuseBasis: true}, ws); sol.Status != Optimal {
		tb.Fatalf("fixture LP: %v", sol.Status)
	}
	if !ws.refactorize() {
		tb.Fatal("fixture basis does not factorize")
	}
	return p, ws
}

// BenchmarkKernel times the layers of one simplex iteration on the captured
// RAS basis and on the LP built around it, each with the nonzeros it touches:
// the refactorization, the two sparse-RHS solves, the row-wise pivot row, and
// whole dual and primal iterations (ns/iter, refactorizations and per-solve
// entry work included) as a branch-and-bound dive and a cold solve pay them.
func BenchmarkKernel(b *testing.B) {
	b.Run("factorize", func(b *testing.B) {
		m, cols := loadFixture(b)
		basis := make([]int, m)
		for s := range basis {
			basis[s] = s
		}
		f := newFactor(m)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if def := f.factorize(cols, basis); len(def) != 0 {
				b.Fatalf("deficient slots %v", def)
			}
		}
		b.ReportMetric(float64(f.factNnz), "nnz")
	})
	b.Run("ftranColumn", func(b *testing.B) {
		_, ws := fixtureWorkspace(b)
		touched := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ws.wnz = ws.fact.ftran(ws.w, ws.cols[i%ws.nStruct], ws.wnz)
			touched += len(ws.wnz)
		}
		b.ReportMetric(float64(touched)/float64(b.N), "nnz")
	})
	b.Run("btranRow", func(b *testing.B) {
		_, ws := fixtureWorkspace(b)
		touched := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ws.rhoIdx = ws.fact.btranRow(ws.rho, i%ws.m, ws.rhoIdx)
			touched += len(ws.rhoIdx)
		}
		b.ReportMetric(float64(touched)/float64(b.N), "nnz")
	})
	b.Run("pivotRow", func(b *testing.B) {
		_, ws := fixtureWorkspace(b)
		touched := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%ws.m == 0 {
				b.StopTimer()
			}
			ws.rhoIdx = ws.fact.btranRow(ws.rho, i%ws.m, ws.rhoIdx)
			if i%ws.m == 0 {
				b.StartTimer()
			}
			ws.pivotRow()
			touched += len(ws.alphaIdx)
		}
		b.ReportMetric(float64(touched)/float64(b.N), "nnz")
	})
	b.Run("dualIteration", func(b *testing.B) {
		p, ws := fixtureWorkspace(b)
		rng := rand.New(rand.NewSource(2))
		base := keep(p.SolveWith(context.Background(), Options{ReuseBasis: true}, ws))
		iters := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// A dive step: fix a handful of columns where the optimum rounds
			// to, re-solve warm, and step back out.
			var fixed [8]int
			for k := range fixed {
				j := rng.Intn(p.NumVars())
				fixed[k] = j
				v := float64(int(base.X[j] + 0.5))
				p.SetBounds(j, v, v)
			}
			sol := p.SolveWith(context.Background(), Options{ReuseBasis: true}, ws)
			iters += sol.Iterations
			for _, j := range fixed {
				p.SetBounds(j, 0, 4)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(max(iters, 1)), "ns/iter")
		b.ReportMetric(float64(iters)/float64(b.N), "iters/op")
	})
	b.Run("primalIteration", func(b *testing.B) {
		p := fixtureLP(b, 1)
		ws := NewWorkspace()
		iters := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sol := p.SolveWith(context.Background(), Options{}, ws)
			if sol.Status != Optimal {
				b.Fatalf("cold solve: %v", sol.Status)
			}
			iters += sol.Iterations
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(max(iters, 1)), "ns/iter")
		b.ReportMetric(float64(iters)/float64(b.N), "iters/op")
	})
	// A live re-entry: the retained basis re-solved after the upper bounds of
	// 0, 4 or 64 nonbasic columns at their lower bound moved (4 → 5 and back),
	// which changes no answer — the whole solve is the entry, the O(nnz)
	// recompute and residual checks, and the closing pricing pass.
	for _, changed := range []int{0, 4, 64} {
		b.Run(fmt.Sprintf("warmEntry/changed=%d", changed), func(b *testing.B) {
			p, ws := fixtureWorkspace(b)
			opt := Options{ReuseBasis: true}
			p.SolveWith(context.Background(), opt, ws)
			var cols []int
			for j := 0; j < ws.nStruct && len(cols) < changed; j++ {
				if ws.inRow[j] < 0 && !ws.atUp[j] && ws.d[j] > 1e-6 {
					cols = append(cols, j)
				}
			}
			if len(cols) < changed {
				b.Fatalf("%d nonbasic columns at their lower bound, want %d", len(cols), changed)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				up := 4.0 + float64(i%2)
				for _, j := range cols {
					p.SetBounds(j, 0, up)
				}
				if sol := p.SolveWith(context.Background(), opt, ws); sol.Iterations != 1 || !sol.WarmStarted {
					b.Fatalf("re-entry took %d iterations (warm %v), want the closing pass alone", sol.Iterations, sol.WarmStarted)
				}
			}
		})
	}
}
