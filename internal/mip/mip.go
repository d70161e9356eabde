// Package mip implements a mixed-integer-programming solver: a modeling API
// for linear objectives and constraints over continuous and integer
// variables, plus a branch-and-bound search that uses package lp for node
// relaxations.
//
// mip is the engine behind the RAS async solver (internal/solver). The RAS
// formulation uses two nonlinear constructs that mip linearizes with
// auxiliary variables:
//
//   - max(0, expr)   → AddPosPart
//   - max over group sums (the embedded correlated-failure buffer)
//     → AddUpperEnvelope
//
// A Model is one lp.Problem — variables, rows, objective, stored and read
// there only — plus what branch-and-bound needs on top of it: integrality,
// penalty marks, a warm-start point and names.
//
// Solve reports not only an incumbent but also the best proven bound and the
// absolute gap, mirroring the quality-gap methodology of the paper's
// Figure 9 ("90% of solutions proven optimal within 200 preemptions").
package mip

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"ras/internal/floats"
	"ras/internal/lp"
)

// Var identifies a variable within a Model.
type Var int

// Term is one linear coefficient Coef·Var.
type Term struct {
	Var  Var
	Coef float64
}

// Sense re-exports the constraint senses of package lp.
type Sense = lp.Sense

// Constraint senses.
const (
	LE = lp.LE
	EQ = lp.EQ
	GE = lp.GE
)

// Inf is the bound value representing "no upper bound".
var Inf = lp.Inf

// Model is a mixed-integer program under construction.
type Model struct {
	prob     lp.Problem // variables, bounds, costs and rows
	integer  []bool
	names    []string
	rowNames []string

	initial []float64    // optional warm-start point (may be partial: NaN = unset)
	penalty map[Var]bool // soft-constraint slack variables (see MarkPenalty)

	// Column index caches for the repair heuristic, rebuilt lazily when the
	// model grows.
	colRows     [][]rowRef
	intOnlyRows []bool
	idxRows     int // row count when the caches were built
	idxVars     int

	kept solveState // per-solve state carried from one Solve to the next
}

// solveState is what a Model keeps of one Solve for the next, so that
// re-solving a model patched in place rebuilds none of it: the root bounds
// Solve snapshots, every row's reachable continuous activity (recomputed only
// when a continuous column's bound changed), the root search's four heuristic
// points, and the storage of the incumbent and of its snapshots (until one
// escapes into a Result).
type solveState struct {
	rootLo, rootUp   []float64
	contMin, contMax []float64 // per-row reachable continuous activity, lower and upper side
	contOK           bool      // contMin/contMax were computed from the continuous bounds in rootLo/rootUp
	points           [4][]float64
	incumbent        []float64
	incCopy          []float64
}

type rowRef struct {
	row  int
	coef float64
}

// buildColIndex (re)builds the column→rows index used by the repair
// heuristic. It is a no-op when the model has not grown since the last call.
func (m *Model) buildColIndex() {
	if m.idxRows == m.prob.NumRows() && m.idxVars == m.prob.NumVars() {
		return
	}
	m.colRows = make([][]rowRef, m.prob.NumVars())
	m.intOnlyRows = make([]bool, m.prob.NumRows())
	for i := range m.intOnlyRows {
		pure := true
		for _, nz := range m.prob.Row(i) {
			m.colRows[nz.Index] = append(m.colRows[nz.Index], rowRef{row: i, coef: nz.Value})
			if !m.integer[nz.Index] {
				pure = false
			}
		}
		m.intOnlyRows[i] = pure
	}
	m.idxRows = m.prob.NumRows()
	m.idxVars = m.prob.NumVars()
}

// NewModel returns an empty model.
func NewModel() *Model { return &Model{} }

// NumVars reports the number of variables added so far.
func (m *Model) NumVars() int { return m.prob.NumVars() }

// NumConstrs reports the number of constraints added so far.
func (m *Model) NumConstrs() int { return m.prob.NumRows() }

// VarName reports the name given to v at creation.
func (m *Model) VarName(v Var) string { return m.names[v] }

// ConstrName reports the name given to constraint row i at creation.
func (m *Model) ConstrName(i int) string { return m.rowNames[i] }

// AddVar adds a continuous variable and returns it. The lower bound must be
// finite; the upper bound may be mip.Inf.
func (m *Model) AddVar(name string, cost, lo, up float64) Var {
	j := m.prob.AddVar(cost, lo, up)
	m.integer = append(m.integer, false)
	m.names = append(m.names, name)
	return Var(j)
}

// AddIntVar adds an integer variable and returns it.
func (m *Model) AddIntVar(name string, cost, lo, up float64) Var {
	v := m.AddVar(name, cost, lo, up)
	m.integer[v] = true
	return v
}

// AddConstr adds the constraint Σ terms sense rhs and returns its row index.
func (m *Model) AddConstr(name string, terms []Term, sense Sense, rhs float64) int {
	nz := make([]lp.Nonzero, 0, len(terms))
	for _, t := range terms {
		nz = append(nz, lp.Nonzero{Index: int(t.Var), Value: t.Coef})
	}
	i := m.prob.AddRow(nz, sense, rhs)
	m.rowNames = append(m.rowNames, name)
	return i
}

// SetVarBounds replaces v's root bounds in place (model-patching API): the
// next Solve snapshots the new bounds as its root bounds. The model's
// structure, and any warm-start basis exported for it, stays valid.
func (m *Model) SetVarBounds(v Var, lo, up float64) { m.prob.SetBounds(int(v), lo, up) }

// VarBounds reports v's current root bounds.
func (m *Model) VarBounds(v Var) (lo, up float64) { return m.prob.Bounds(int(v)) }

// SetRHS replaces the right-hand side of constraint row i in place
// (model-patching API), keeping the row's coefficients, sense, and name —
// the RAS incremental build's path for resized demands C_r.
func (m *Model) SetRHS(i int, rhs float64) { m.prob.SetRHS(i, rhs) }

// Fingerprint hashes the model's entire solve-relevant content — variables
// (bounds, costs, integrality, names), rows (coefficients, senses, RHS,
// names), warm-start point, and penalty marks — into one
// uint64. Two models with equal fingerprints are interchangeable for Solve;
// the solver's incremental-build property tests compare a patched model
// against a cold rebuild this way.
func (m *Model) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf []byte
	w64 := func(u uint64) {
		buf = append(buf, byte(u>>56), byte(u>>48), byte(u>>40), byte(u>>32),
			byte(u>>24), byte(u>>16), byte(u>>8), byte(u))
	}
	wf := func(f float64) { w64(math.Float64bits(f)) }
	ws := func(s string) { w64(uint64(len(s))); buf = append(buf, s...) }
	w64(uint64(m.prob.NumVars()))
	for j := 0; j < m.prob.NumVars(); j++ {
		lo, up := m.prob.Bounds(j)
		wf(lo)
		wf(up)
		wf(m.prob.Cost(j))
		if m.integer[j] {
			w64(1)
		} else {
			w64(0)
		}
		ws(m.names[j])
	}
	w64(uint64(m.prob.NumRows()))
	for i := 0; i < m.prob.NumRows(); i++ {
		row := m.prob.Row(i)
		w64(uint64(len(row)))
		for _, nz := range row {
			w64(uint64(nz.Index))
			wf(nz.Value)
		}
		w64(uint64(m.prob.Sense(i)))
		wf(m.prob.RHS(i))
		ws(m.rowNames[i])
	}
	w64(uint64(len(m.initial)))
	for _, v := range m.initial {
		wf(v)
	}
	pens := make([]int, 0, len(m.penalty))
	for v := range m.penalty {
		pens = append(pens, int(v))
	}
	sort.Ints(pens)
	for _, v := range pens {
		w64(uint64(v))
	}
	h.Write(buf) //raslint:allow errdrop hash.Hash documents that Write never returns an error
	return h.Sum64()
}

// AddPosPart adds an auxiliary continuous variable y with objective
// coefficient cost, constrained by y ≥ Σ terms + constant and y ≥ 0, and
// returns y with the index of that row. When cost > 0 and the model is
// minimized, y takes the value max(0, Σ terms + constant), which linearizes
// the hinge penalties of the RAS stability and spread objectives (paper
// expressions 1–3).
func (m *Model) AddPosPart(name string, terms []Term, constant, cost float64) (Var, int) {
	y := m.AddVar(name, cost, 0, Inf)
	row := make([]Term, 0, len(terms)+1)
	row = append(row, Term{y, 1})
	for _, t := range terms {
		row = append(row, Term{t.Var, -t.Coef})
	}
	return y, m.AddConstr(name, row, GE, constant)
}

// AddUpperEnvelope adds an auxiliary continuous variable z with objective
// coefficient cost and one constraint z ≥ Σ group per group, returning z
// with the row indices, one per group in order. Under minimization pressure z
// equals the maximum group sum, linearizing the correlated-failure-buffer
// term (paper expression 4) and providing the left-hand max of the buffer
// constraint (expression 6).
func (m *Model) AddUpperEnvelope(name string, groups [][]Term, cost float64) (Var, []int) {
	z := m.AddVar(name, cost, 0, Inf)
	rows := make([]int, len(groups))
	for gi, g := range groups {
		row := make([]Term, 0, len(g)+1)
		row = append(row, Term{z, 1})
		for _, t := range g {
			row = append(row, Term{t.Var, -t.Coef})
		}
		rows[gi] = m.AddConstr(fmt.Sprintf("%s[%d]", name, gi), row, GE, 0)
	}
	return z, rows
}

// MarkPenalty declares v to be a pure penalty slack: a continuous variable
// that exists only to absorb a soft-constraint violation. Primal heuristics
// zero such variables when evaluating constraint rows, so violations hidden
// behind slack become visible to integer repair moves.
func (m *Model) MarkPenalty(v Var) {
	if m.penalty == nil {
		m.penalty = make(map[Var]bool)
	}
	m.penalty[v] = true
}

// SetInitial supplies a warm-start point. If the point is feasible and
// integral it seeds the incumbent, which lets Solve report gaps relative to
// the previous assignment exactly as RAS does between consecutive solves.
// Use math.NaN for variables without a hint.
func (m *Model) SetInitial(x []float64) {
	if len(x) == 0 {
		m.initial = nil
		return
	}
	m.initial = append(m.initial[:0], x...)
}

// Status reports the outcome of a MIP solve.
type Status int8

// Solve outcomes.
const (
	// Optimal means the incumbent was proven optimal within tolerances.
	Optimal Status = iota
	// Feasible means an incumbent exists but the search stopped early
	// (time, node limit); Bound and Gap quantify remaining uncertainty.
	Feasible
	// Infeasible means the relaxation has no feasible point.
	Infeasible
	// Unbounded means the relaxation is unbounded below.
	Unbounded
	// NoSolution means the search stopped before finding any incumbent.
	NoSolution
	// Cancelled means the solve context was cancelled mid-search while an
	// incumbent existed: X, Objective, Bound, and Gap are all valid, exactly
	// as for Feasible, but the stop was externally requested rather than a
	// time or node limit. Cancellation without an incumbent reports
	// NoSolution instead.
	Cancelled
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Feasible:
		return "feasible"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case NoSolution:
		return "no-solution"
	case Cancelled:
		return "cancelled"
	}
	return fmt.Sprintf("Status(%d)", int8(s))
}

// intTol is the integrality tolerance.
const intTol float64 = 1e-6

// relGap is the relative gap, (incumbent − bound) / (1 + |incumbent|), at or
// below which a search that stopped early — node cap, stall rule, deadline —
// is still labelled Optimal. It does not stop the search.
const relGap = 0.02

// Options tunes the branch-and-bound search. It has no time limit: the
// caller bounds a solve with a ctx deadline.
type Options struct {
	// MaxNodes bounds the number of explored nodes. Zero means 100000.
	MaxNodes int
	// AbsGap stops the search once incumbent − bound ≤ AbsGap. Zero means 1e-6.
	AbsGap float64
	// StallNodes stops the search once this many consecutive nodes pass
	// with no incumbent improvement and no bound improvement while the
	// absolute gap is at most StallGap — the long tail of a solve that has
	// its answer but cannot prove it against a degenerate (flat) bound.
	// The rule is keyed to the global node counter, never wall-clock, so
	// serial solves stay deterministic. Zero disables the rule; it is also
	// inert unless StallGap > 0.
	StallNodes int
	// StallGap is the absolute-gap ceiling below which the stall rule may
	// fire. Zero disables the rule.
	StallGap float64
	// RootBasis warm-starts the root relaxation: a previous solve's
	// Result.RootBasis when the model is unchanged or patched in place, or
	// that basis rewritten status by status onto a rebuilt model — the
	// cross-round warm start of the RAS async solver, whose consecutive
	// rounds solve near-identical problems. A basis the root LP cannot use
	// falls back to a cold root solve and Result.RootCold says why.
	RootBasis *lp.Basis
	// RootWorkspace is the Result.RootWorkspace of the previous solve of this
	// same model (patched in place since, perhaps): the root search runs on it
	// instead of a new one, so the simplex structure is not rebuilt, and when
	// RootBasis is the basis it still holds — nothing was solved on it after
	// that root — the root LP re-enters its factorization too, once the basic
	// values recomputed from the new bounds and right-hand sides pass the
	// residual check (it is refactorized otherwise). It is state like
	// RootBasis, and like it single-flight: one solve at a time may hold it.
	RootWorkspace *lp.Workspace
	// Workers is the number of branch-and-bound workers draining one open
	// list, already resolved by the caller. ≤ 1 runs the search on the
	// calling goroutine alone — results are bit-for-bit reproducible. Values
	// > 1 fork that many minus one workers on problem clones, which start on
	// the tree while the root primal heuristics still run; results remain
	// correct (same proven status and gap guarantees) but the incumbent point
	// may differ between runs.
	Workers int
}

// Result is the outcome of Solve.
type Result struct {
	Status    Status
	Objective float64   // incumbent objective (valid unless NoSolution/Infeasible)
	Bound     float64   // best proven lower bound on the optimum
	X         []float64 // incumbent point, one entry per variable
	Nodes     int       // branch-and-bound nodes explored
	// LP sums what every LP workspace of the solve did — the root search's
	// and each other worker's — read once after they joined.
	LP lp.Stats
	// Workers is the resolved worker count the solve ran with (≥ 1).
	Workers int
	// IncumbentUpdates counts accepted improvements of the shared
	// incumbent.
	IncumbentUpdates int
	// HeuristicWins counts incumbent updates contributed by the primal
	// heuristics (round/repair/complete and diving) rather than by
	// integral node relaxations.
	HeuristicWins int
	// RootBasis is the root relaxation's exported basis when it solved to
	// optimality (nil otherwise). Feed it to the next solve's
	// Options.RootBasis to warm-start across rounds.
	RootBasis *lp.Basis
	// RootLPIters counts the simplex iterations of the root relaxation
	// alone — the quantity cross-round warm starts shrink. RootWarm reports
	// that it was completed from Options.RootBasis; RootCold is the reason it
	// was not when a basis was offered (lp.ColdNone otherwise).
	RootLPIters int
	RootWarm    bool
	RootCold    lp.ColdReason
	// RootObjective is the root relaxation's optimum — the bound the search
	// starts from, so Objective − RootObjective is the gap it had to close;
	// -Inf when the root LP did not solve to optimality.
	RootObjective float64
	// RootWorkspace is the LP workspace the root search ran on, for the next
	// solve's Options.RootWorkspace.
	RootWorkspace *lp.Workspace
}

// Gap reports the absolute optimality gap incumbent − bound (0 when proven
// optimal; +Inf when no incumbent exists).
func (r Result) Gap() float64 {
	if r.Status == NoSolution || r.Status == Infeasible {
		return math.Inf(1)
	}
	g := r.Objective - r.Bound
	if g < 0 {
		return 0
	}
	return g
}

type node struct {
	// Bound changes relative to the root problem, applied in order.
	changes []boundChange
	bound   float64 // parent LP objective (lower bound for this node)
	depth   int
	// basis is the optimal basis of the LP this node was branched from — the
	// nearest solved problem, one bound away — and the start of this node's
	// own LP, whichever goroutine pops it. Immutable, shared with the sibling;
	// nil when the parent's basis could not be kept (the LP then starts from
	// whatever its workspace solved last).
	basis *lp.Basis
}

type boundChange struct {
	v      int
	lo, up float64
}

// Solve minimizes the model and returns the result. The model may be solved
// repeatedly and modified between solves.
//
// Cancelling ctx aborts the search cooperatively: the context is polled at
// every branch-and-bound node and inside every LP's simplex loop, and the
// best incumbent found so far is returned with Status Cancelled (NoSolution
// when no incumbent exists yet). A ctx deadline stops the search the same way
// but reports the incumbent as Feasible: the budget ran out.
func (m *Model) Solve(ctx context.Context, opt Options) Result {
	if ctx == nil {
		ctx = context.Background() //raslint:allow ctxflow nil ctx defaults to Background at the public API boundary
	}
	if floats.ExactZero(opt.AbsGap) {
		opt.AbsGap = 1e-6
	}
	if opt.MaxNodes == 0 {
		opt.MaxNodes = 100000
	}
	if opt.Workers < 1 {
		opt.Workers = 1
	}

	e := newEngine(ctx, m, opt)
	defer e.restoreRootBounds()

	res := m.branchAndBound(e)
	e.fillStats(&res)
	res.Workers = opt.Workers
	return res
}

func sign(x float64) float64 {
	if x < 0 {
		return -1
	}
	return 1
}

func appendChange(cs []boundChange, c boundChange) []boundChange {
	out := make([]boundChange, len(cs)+1)
	copy(out, cs)
	out[len(cs)] = c
	return out
}

// nodeBounds reports the effective bounds of v at node nd.
func nodeBounds(nd node, v int, rootLo, rootUp float64) (lo, up float64) {
	lo, up = rootLo, rootUp
	for _, bc := range nd.changes {
		if bc.v == v {
			lo, up = bc.lo, bc.up
		}
	}
	return lo, up
}

// mostFractional returns the integer variable with value farthest from an
// integer, or -1 if all integer variables are integral within intTol.
func (m *Model) mostFractional(x []float64) int {
	best := -1
	bestDist := intTol
	for j, isInt := range m.integer {
		if !isInt {
			continue
		}
		f := x[j] - math.Floor(x[j])
		d := math.Min(f, 1-f)
		if d > bestDist {
			bestDist = d
			best = j
		}
	}
	return best
}

// objective evaluates the model objective at x.
func (m *Model) objective(x []float64) float64 {
	obj := 0.0
	for j := 0; j < m.prob.NumVars(); j++ {
		obj += m.prob.Cost(j) * x[j]
	}
	return obj
}

// feasibleIntegral reports whether x satisfies every constraint, the
// model's current bounds, and integrality within intTol.
func (m *Model) feasibleIntegral(x []float64) bool {
	return m.feasibleIntegralIn(&m.prob, x)
}

// feasibleIntegralIn is feasibleIntegral evaluated against an explicit
// problem copy — the worker-local scratch of a parallel search, whose bounds
// may be tightened independently of the model's own problem and whose rows
// are the model's.
func (m *Model) feasibleIntegralIn(p *lp.Problem, x []float64) bool {
	if len(x) != p.NumVars() {
		return false
	}
	ftol := 1e-6
	for j := range x {
		if math.IsNaN(x[j]) {
			return false
		}
		lo, up := p.Bounds(j)
		if x[j] < lo-ftol || x[j] > up+ftol {
			return false
		}
		if m.integer[j] {
			if d := math.Abs(x[j] - math.Round(x[j])); d > intTol {
				return false
			}
		}
	}
	for i := 0; i < p.NumRows(); i++ {
		lhs := 0.0
		for _, nz := range p.Row(i) {
			lhs += nz.Value * x[nz.Index]
		}
		rhs := p.RHS(i)
		scale := 1.0 + math.Abs(rhs)
		switch p.Sense(i) {
		case LE:
			if lhs > rhs+ftol*scale {
				return false
			}
		case GE:
			if lhs < rhs-ftol*scale {
				return false
			}
		case EQ:
			if math.Abs(lhs-rhs) > ftol*scale {
				return false
			}
		}
	}
	return true
}
