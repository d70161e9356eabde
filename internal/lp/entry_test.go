package lp

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// entryRun re-solves one seeded sequence of bound and right-hand-side edits on
// one workspace from its retained basis — fixings, unfixings, tightenings,
// re-widenings, an upper bound of a column at its upper bound lifted to +Inf,
// right-hand sides nudged — with fullWarmEntry set to full. It returns every
// solution, the workspace's counters after each, and how many solves entered
// on the live factorization with only the changed columns to install.
func entryRun(t testing.TB, seed int64, fixture, full bool) (sols []Solution, stats []Stats, changedEntries int) {
	defer func(was bool) { fullWarmEntry = was }(fullWarmEntry)
	fullWarmEntry = full

	rng := rand.New(rand.NewSource(seed))
	var p *Problem
	if fixture {
		p = fixtureLP(t, seed)
	} else {
		p = sparseBoxedLP(rng, 4+rng.Intn(28), 2+rng.Intn(16))
	}
	n, m := p.NumVars(), p.NumRows()
	rootLo, rootUp := make([]float64, n), make([]float64, n)
	for j := range rootLo {
		rootLo[j], rootUp[j] = p.Bounds(j)
	}
	rootRHS := append([]float64(nil), p.rhs...)

	ws := NewWorkspace()
	opt := Options{ReuseBasis: true}
	solve := func() Solution {
		if ws.liveIsGood && !ws.offBound {
			changedEntries++
		}
		sol := keep(p.SolveWith(context.Background(), opt, ws))
		sols, stats = append(sols, sol), append(stats, ws.Stats())
		return sol
	}
	last := solve()
	for step := 0; step < 16; step++ {
		for k := 0; k <= rng.Intn(4); k++ {
			j := rng.Intn(n)
			lo, up := p.Bounds(j)
			x := lo
			if last.Status == Optimal {
				x = math.Min(up, math.Max(lo, math.Round(last.X[j])))
			}
			switch rng.Intn(7) {
			case 0: // fix
				p.SetBounds(j, x, x)
			case 1: // tighten from above
				p.SetBounds(j, lo, x)
			case 2: // tighten from below
				p.SetBounds(j, x, up)
			case 3: // unfix: back to the root box
				p.SetBounds(j, rootLo[j], rootUp[j])
			case 4: // widen to +Inf a column the last basis holds at its upper bound
				if b := ws.Basis(); b != nil {
					for jj := 0; jj < n; jj++ {
						if b.Col((j+jj)%n) == AtUpper {
							j = (j + jj) % n
							break
						}
					}
				}
				lo, _ = p.Bounds(j)
				p.SetBounds(j, lo, Inf)
			case 5: // nudge a right-hand side
				i := rng.Intn(m)
				p.SetRHS(i, p.RHS(i)+float64(rng.Intn(5)-2)/4)
			default: // nothing: an unchanged re-solve
			}
		}
		sol := solve()
		if sol.Status == Optimal {
			last = sol
			continue
		}
		// Step back to the root problem, so the sequence goes on editing a
		// problem that has solutions.
		for j := range rootLo {
			p.SetBounds(j, rootLo[j], rootUp[j])
		}
		for i, r := range rootRHS {
			p.SetRHS(i, r)
		}
	}
	return sols, stats, changedEntries
}

// sameSolution reports whether a and b agree to the bit.
func sameSolution(a, b Solution) bool {
	if a.Status != b.Status || math.Float64bits(a.Objective) != math.Float64bits(b.Objective) ||
		a.Iterations != b.Iterations || a.WarmStarted != b.WarmStarted || a.ColdFallback != b.ColdFallback ||
		len(a.X) != len(b.X) {
		return false
	}
	for j := range a.X {
		if math.Float64bits(a.X[j]) != math.Float64bits(b.X[j]) {
			return false
		}
	}
	return true
}

// checkEntriesMatch runs one edit sequence through the changed-columns entry
// and through the full passes it replaces, and requires the same solutions and
// counters after every solve. It returns how many solves took the changed
// entry.
func checkEntriesMatch(t testing.TB, seed int64, fixture bool) int {
	t.Helper()
	got, gotStats, changed := entryRun(t, seed, fixture, false)
	want, wantStats, _ := entryRun(t, seed, fixture, true)
	for k := range want {
		if !sameSolution(got[k], want[k]) || gotStats[k] != wantStats[k] {
			t.Fatalf("seed %d fixture %v solve %d: changed entry %v %.17g in %d iterations (%+v), full entry %v %.17g in %d iterations (%+v)",
				seed, fixture, k, got[k].Status, got[k].Objective, got[k].Iterations, gotStats[k],
				want[k].Status, want[k].Objective, want[k].Iterations, wantStats[k])
		}
	}
	return changed
}

// TestChangedEntryMatchesFullEntry: a warm re-entry on the live factorization
// that installs only the columns whose bounds changed, and prices only those
// for the dual pass, computes what the full passes over every column compute,
// to the bit — statuses, objectives, points, iteration counts and counters.
func TestChangedEntryMatchesFullEntry(t *testing.T) {
	changed, solves := 0, 0
	for seed := int64(1); seed <= 60; seed++ {
		changed += checkEntriesMatch(t, seed, false)
		solves += 16
	}
	changed += checkEntriesMatch(t, 1, true)
	solves += 16
	if 2*changed < solves {
		t.Fatalf("only %d of %d re-solves took the changed-columns entry", changed, solves)
	}
}

// FuzzChangedEntryMatchesFullEntry is TestChangedEntryMatchesFullEntry over
// any seed, on random sparse boxed LPs or the LP built around the captured
// RAS basis.
func FuzzChangedEntryMatchesFullEntry(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 7} {
		f.Add(seed, false)
	}
	f.Add(int64(1), true)
	f.Fuzz(func(t *testing.T, seed int64, fixture bool) {
		checkEntriesMatch(t, seed, fixture)
	})
}
