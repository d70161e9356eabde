package mip

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ras/internal/floats"
)

// This file keeps the serial branch-and-bound driver as it was before the
// serial search became the node pool drained by one worker: a test-only
// reference that runs the root LP, the root heuristics and then its own node
// loop over a private open list, picking best-bound every 16th node by the
// node count. It differs from that driver only in its name (solveSerialRef);
// solveRef is Model.Solve's Workers=1 path around it. TestDriverMatchesSerialReference
// and FuzzDriverMatchesSerialReference require the pool driver's Workers=1
// results to be identical to it.

// solveSerialRef is the Workers=1 branch-and-bound driver: one goroutine, node
// order and heuristic schedule keyed to node counts alone, so serial results
// are bit-for-bit repeatable.
func (m *Model) solveSerialRef(e *engine) Result {
	opt := e.opt
	res := newResult()
	s := newSearch(e, &m.prob, opt.RootBasis, opt.RootWorkspace)

	rootSol, final := s.solveRoot(&res)
	if final {
		return res
	}
	res.Bound = rootSol.Objective
	if m.mostFractional(rootSol.X) != -1 {
		s.rootHeuristics(rootSol)
	}

	// Open-node pool. Depth-first diving with periodic best-bound selection
	// keeps memory modest while still improving the global bound.
	open := []node{{bound: rootSol.Objective, basis: res.RootBasis}}
	bestBound := func() float64 {
		if len(open) == 0 {
			return e.bestObj()
		}
		b := math.Inf(1)
		for i := range open {
			if open[i].bound < b {
				b = open[i].bound
			}
		}
		return b
	}

	for len(open) > 0 {
		if int(e.nodes.Load()) >= opt.MaxNodes || e.expired() {
			break
		}
		bb := bestBound()
		e.noteBound(bb)
		if e.stalled(bb) {
			break
		}
		// Node selection: mostly LIFO (dive), every 16th node best-bound.
		pick := len(open) - 1
		if int(e.nodes.Load())%16 == 15 {
			for i := range open {
				if open[i].bound < open[pick].bound {
					pick = i
				}
			}
		}
		nd := open[pick]
		open = append(open[:pick], open[pick+1:]...)

		// A cancelled node comes back on the list, so the final bound still
		// accounts for its subtree; the loop exits via expired() above.
		open = s.processNode(nd, open)
	}

	s.polish(bestBound())
	return e.finalResult(res, bestBound(), len(open))
}

// solveRef is Model.Solve at Workers=1 with the reference driver.
func (m *Model) solveRef(ctx context.Context, opt Options) Result {
	if floats.ExactZero(opt.AbsGap) {
		opt.AbsGap = 1e-6
	}
	if opt.MaxNodes == 0 {
		opt.MaxNodes = 100000
	}
	opt.Workers = 1

	e := newEngine(ctx, m, opt)
	defer e.restoreRootBounds()
	res := m.solveSerialRef(e)
	e.fillStats(&res)
	res.Workers = opt.Workers
	return res
}

// refCase builds one seeded model for the reference comparison — shape picks
// a random assignment, a generalized assignment or a market-split model
// started from a feasible point — and the options to solve it with: limits
// picks the node cap, whether the stall rule is on, and whether a second
// solve starts from the first one's root basis and workspace.
func refCase(seed int64, shape, limits byte) (build func() *Model, opt Options, again bool) {
	stallGap := 4.0
	switch shape % 3 {
	case 0:
		n, k := 6+int(shape/3)%9, 3+int(shape/27)%3
		build = func() *Model {
			m, _ := randomAssignment(rand.New(rand.NewSource(seed)), n, k)
			return m
		}
	case 1:
		build = func() *Model { return generalizedAssignment(seed) }
	default:
		n, rows := 12+int(shape/3)%13, 2+int(shape/39)%2
		stallGap = 0.5
		build = func() *Model {
			m, point := hardBinaryModel(seed, n, rows)
			m.SetInitial(point)
			return m
		}
	}
	opt = Options{MaxNodes: []int{1, 7, 60, 400}[limits%4], Workers: 1}
	if limits&4 != 0 {
		opt.StallNodes, opt.StallGap = 8, stallGap
	}
	return build, opt, limits&8 != 0
}

// sameBits reports whether a and b are the same float64, bit for bit.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// requireSameResult fails t unless the driver's result got equals the
// reference's want in everything the search decides.
func requireSameResult(t *testing.T, what string, got, want Result) {
	t.Helper()
	if got.Status != want.Status || !sameBits(got.Objective, want.Objective) || !sameBits(got.Bound, want.Bound) ||
		got.Nodes != want.Nodes || got.LP != want.LP || got.IncumbentUpdates != want.IncumbentUpdates ||
		got.HeuristicWins != want.HeuristicWins || got.RootLPIters != want.RootLPIters {
		t.Fatalf("%s: driver status=%v obj=%v bound=%v nodes=%d incumbents=%d heuristic=%d root-iters=%d LP=%+v\n"+
			"reference status=%v obj=%v bound=%v nodes=%d incumbents=%d heuristic=%d root-iters=%d LP=%+v", what,
			got.Status, got.Objective, got.Bound, got.Nodes, got.IncumbentUpdates, got.HeuristicWins, got.RootLPIters, got.LP,
			want.Status, want.Objective, want.Bound, want.Nodes, want.IncumbentUpdates, want.HeuristicWins, want.RootLPIters, want.LP)
	}
	if len(got.X) != len(want.X) {
		t.Fatalf("%s: driver point has %d entries, reference %d", what, len(got.X), len(want.X))
	}
	for j := range got.X {
		if !sameBits(got.X[j], want.X[j]) {
			t.Fatalf("%s: x[%d] = %v from the driver, %v from the reference", what, j, got.X[j], want.X[j])
		}
	}
}

// spreadCases are spreadModel searches whose root retry dive runs deep — six
// to ten LPs each, where none of refCase's searches runs one past its first
// LP — so the reference comparison and the golden trajectories see the
// dive's later depths and its batch rollbacks on envelope-coupled rows.
var spreadCases = [...]struct {
	seed             int64
	res, doms, types int
	maxNodes         int
	again            bool
}{
	{1, 3, 3, 3, 1, false},
	{1, 4, 4, 4, 60, false},
	{2, 6, 4, 3, 1, true},
	{3, 3, 4, 3, 60, true},
	{5, 5, 3, 4, 60, false},
	{7, 4, 4, 3, 60, true},
	{9, 4, 4, 3, 1, false},
	{12, 6, 4, 3, 60, false},
}

// spreadCase is spreadCases[i] as refCase returns a case.
func spreadCase(i int) (build func() *Model, opt Options, again bool) {
	c := spreadCases[i]
	build = func() *Model { return spreadModel(c.seed, c.res, c.doms, c.types) }
	return build, Options{MaxNodes: c.maxNodes, Workers: 1}, c.again
}

// compareWithReference solves one refCase with the driver and with the
// reference, each on its own copy of the model, and returns the driver's
// results.
func compareWithReference(t *testing.T, seed int64, shape, limits byte) []Result {
	t.Helper()
	build, opt, again := refCase(seed, shape, limits)
	return compareCase(t, fmt.Sprintf("seed %d shape %d limits %d", seed, shape, limits), build, opt, again)
}

// compareCase solves one case with the driver and with the reference, each
// on its own copy of the model — again from the first solve's root basis and
// workspace when again is set — and returns the driver's results.
func compareCase(t *testing.T, name string, build func() *Model, opt Options, again bool) []Result {
	t.Helper()
	mGot, mWant := build(), build()
	ctx := context.Background()
	got := []Result{mGot.Solve(ctx, opt)}
	want := []Result{mWant.solveRef(ctx, opt)}
	if again {
		o := opt
		o.RootBasis, o.RootWorkspace = got[0].RootBasis, got[0].RootWorkspace
		got = append(got, mGot.Solve(ctx, o))
		o.RootBasis, o.RootWorkspace = want[0].RootBasis, want[0].RootWorkspace
		want = append(want, mWant.solveRef(ctx, o))
	}
	for i := range got {
		requireSameResult(t, fmt.Sprintf("%s solve %d", name, i), got[i], want[i])
	}
	return got
}

// TestDriverMatchesSerialReference: at Workers=1 the pool driver decides
// exactly what the serial driver did — same status, objective, bound and
// point bit for bit, same node count, LP statistics, incumbent updates,
// heuristic wins and root iterations — over 72 seeded models of three
// families, at node caps from 1 to 400, with the stall rule on and off, and
// cold or from a previous solve's root basis and workspace. Enough of them
// run past 16 nodes, prune popped nodes and stop on the stall rule that a
// best-bound pick keyed to anything but the node count would diverge.
func TestDriverMatchesSerialReference(t *testing.T) {
	deep, stalled := 0, 0
	for seed := int64(0); seed < 72; seed++ {
		shape := byte(seed%3) + 3*byte(seed*7%13)
		limits := byte(seed / 3 % 16)
		for _, r := range compareWithReference(t, seed, shape, limits) {
			if r.Nodes > 16 {
				deep++
			}
			_, opt, _ := refCase(seed, shape, limits)
			if opt.StallNodes > 0 && r.Nodes < opt.MaxNodes && r.Status == Feasible {
				stalled++
			}
		}
	}
	t.Logf("%d solves went past 16 nodes, %d stopped on the stall rule", deep, stalled)
	if deep < 20 || stalled == 0 {
		t.Fatalf("%d solves went past 16 nodes and %d stopped on the stall rule: the cases lost their point", deep, stalled)
	}
	for i := range spreadCases {
		build, opt, again := spreadCase(i)
		r := compareCase(t, fmt.Sprintf("spread case %d", i), build, opt, again)[0]
		// Two LPs offered no basis, the root and the retry dive's first: the
		// dive fired (TestRetryDiveStartsColdOnce).
		if cold := r.LP.Solves - r.LP.WarmHits - r.LP.ColdFallbacks.Total(); cold != 2 {
			t.Fatalf("spread case %d: %d LPs offered no basis, want 2: the retry dive no longer fires", i, cold)
		}
	}
}

// FuzzDriverMatchesSerialReference is TestDriverMatchesSerialReference for
// any seed, shape and limits bytes.
func FuzzDriverMatchesSerialReference(f *testing.F) {
	f.Add(int64(1), byte(0), byte(3))  // random assignment, 400 nodes
	f.Add(int64(7), byte(1), byte(14)) // generalized assignment, stall rule, second solve warm
	f.Add(int64(17), byte(5), byte(2)) // market split from a feasible point, 60 nodes
	f.Add(int64(3), byte(20), byte(15))
	f.Fuzz(func(t *testing.T, seed int64, shape, limits byte) {
		compareWithReference(t, seed, shape, limits)
	})
}
