// Package lp implements a linear-programming solver based on the revised
// simplex method with bounded variables.
//
// The solver handles problems of the form
//
//	minimize    c·x
//	subject to  A·x {≤,=,≥} b
//	            lo ≤ x ≤ up
//
// Inequality rows are converted to equalities internally by adding slack
// variables. Feasibility is established with a phase-1 solve over artificial
// variables, after which the true objective is minimized in phase 2. The
// basis is held as a sparse LU factorization with Markowitz ordering plus a
// product-form eta file: pivots append eta updates, and the factors are
// rebuilt from scratch on a deterministic cadence (eta count or fill growth,
// never wall-clock) to bound numerical drift and eta-file bloat. FTRAN and
// BTRAN solves run over the stored sparse columns and factors only, so both
// the per-iteration cost and the retained memory scale with the problem's
// nonzeros rather than with m² — the property that makes the
// transportation-like LPs RAS produces after symmetry reduction (hundreds to
// a few thousand rows, a handful of nonzeros per column) cheap to re-solve.
//
// All solver state — sparse columns, the slack/artificial layout, the basis
// factorization, and every pricing and ratio-test scratch vector — lives in
// a reusable Workspace so that repeated solves of the same Problem shape
// (the branch-and-bound node-LP loop, the round-after-round re-solves of the
// RAS async solver) run allocation-free in steady state. SolveWith is the one
// entry: the caller owns the workspace, asks it for the optimal basis
// (Workspace.Basis) only when it keeps one, and reads its counters from
// Workspace.Stats.
//
// lp is the substrate for package mip, which layers branch-and-bound on top
// to solve the mixed-integer programs formulated by the RAS async solver.
package lp

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"

	"ras/internal/floats"
)

// Sense describes the relation of a constraint row to its right-hand side.
type Sense int8

// Constraint senses.
const (
	LE Sense = iota // ≤
	EQ              // =
	GE              // ≥
)

func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case EQ:
		return "=="
	case GE:
		return ">="
	}
	return fmt.Sprintf("Sense(%d)", int8(s))
}

// Inf is the bound value representing "unbounded". Use +Inf for no upper
// bound. Lower bounds must be finite; shift variables if necessary.
var Inf = math.Inf(1)

// Nonzero is a single coefficient of a sparse constraint row or column.
type Nonzero struct {
	Index int     // variable index within the problem
	Value float64 // coefficient
}

// Problem is a linear program under construction. The zero value is an empty
// problem ready for use.
type Problem struct {
	cost []float64 // objective coefficients, one per variable
	lo   []float64 // lower bounds (finite)
	up   []float64 // upper bounds (may be +Inf)

	rows   [][]Nonzero // sparse constraint rows, each a full slice of nz
	senses []Sense
	rhs    []float64
	nz     []Nonzero // the storage of every row, in row order

	// gen counts the Resets: a workspace that built its structure for this
	// problem at another generation builds it again.
	gen uint64

	// mark is AddRow's scratch: for each variable, one more than its position
	// in the row being added, zero outside AddRow.
	mark []int32
}

// Reset empties the problem for a rebuild that reuses its storage: the next
// variables and rows are written over the old ones. Workspaces treat the
// rebuilt problem as a new one. Rows the problem handed out — Row, or a
// Clone's — are overwritten by the rebuild, so nothing may hold them across
// a Reset.
func (p *Problem) Reset() {
	p.cost, p.lo, p.up = p.cost[:0], p.lo[:0], p.up[:0]
	p.rows, p.senses, p.rhs, p.nz = p.rows[:0], p.senses[:0], p.rhs[:0], p.nz[:0]
	p.gen++
}

// NumVars reports the number of variables added so far.
func (p *Problem) NumVars() int { return len(p.cost) }

// NumRows reports the number of constraint rows added so far.
func (p *Problem) NumRows() int { return len(p.rows) }

// AddVar appends a variable with the given objective cost and bounds and
// returns its index. The lower bound must be finite and not exceed the upper
// bound; the upper bound may be lp.Inf.
func (p *Problem) AddVar(cost, lo, up float64) int {
	if math.IsInf(lo, 0) || math.IsNaN(lo) {
		panic(fmt.Sprintf("lp: non-finite lower bound %v", lo))
	}
	if up < lo {
		panic(fmt.Sprintf("lp: upper bound %v below lower bound %v", up, lo))
	}
	p.cost = append(p.cost, cost)
	p.lo = append(p.lo, lo)
	p.up = append(p.up, up)
	return len(p.cost) - 1
}

// SetBounds replaces the bounds of variable j. It is used by branch-and-bound
// to tighten bounds between solves of the same problem.
func (p *Problem) SetBounds(j int, lo, up float64) {
	if j < 0 || j >= len(p.cost) {
		panic(fmt.Sprintf("lp: SetBounds on unknown variable %d", j))
	}
	if math.IsInf(lo, 0) || math.IsNaN(lo) {
		panic(fmt.Sprintf("lp: non-finite lower bound %v", lo))
	}
	if up < lo {
		panic(fmt.Sprintf("lp: upper bound %v below lower bound %v", up, lo))
	}
	p.lo[j] = lo
	p.up[j] = up
}

// Bounds reports the current bounds of variable j.
func (p *Problem) Bounds(j int) (lo, up float64) { return p.lo[j], p.up[j] }

// SetRHS replaces the right-hand side of row i in place — the model-patching
// path of the RAS incremental build, where a resized demand changes C_r
// without touching any row coefficients. Like SetBounds it may be called
// between solves of the same problem: workspaces re-copy the RHS on entry,
// and a retained basis is repaired by the dual simplex instead of being
// discarded.
func (p *Problem) SetRHS(i int, rhs float64) {
	if i < 0 || i >= len(p.rows) {
		panic(fmt.Sprintf("lp: SetRHS on unknown row %d", i))
	}
	if math.IsNaN(rhs) || math.IsInf(rhs, 0) {
		panic(fmt.Sprintf("lp: non-finite rhs %v", rhs))
	}
	p.rhs[i] = rhs
}

// RHS reports the current right-hand side of row i.
func (p *Problem) RHS(i int) float64 { return p.rhs[i] }

// Row reports the coefficients of row i as AddRow stored them: zeros dropped,
// duplicate indices summed, in first-occurrence order. The slice is the
// problem's own and must not be modified.
func (p *Problem) Row(i int) []Nonzero { return p.rows[i] }

// Sense reports the sense of row i.
func (p *Problem) Sense(i int) Sense { return p.senses[i] }

// Cost reports the objective coefficient of variable j.
func (p *Problem) Cost(j int) float64 { return p.cost[j] }

// Clone returns a copy of the problem whose bounds (and costs) can be
// mutated independently of the original — the per-worker scratch state of a
// parallel branch-and-bound search, where every worker tightens bounds on
// its own copy between node LPs. The sparse row payloads are shared with the
// original: SolveWith, SetBounds and SetRHS never write a row, so sharing
// them is safe as long as neither copy adds rows or variables, or is Reset,
// while the clone is in use.
func (p *Problem) Clone() *Problem {
	return &Problem{
		cost:   append([]float64(nil), p.cost...),
		lo:     append([]float64(nil), p.lo...),
		up:     append([]float64(nil), p.up...),
		rows:   append([][]Nonzero(nil), p.rows...),
		senses: append([]Sense(nil), p.senses...),
		rhs:    append([]float64(nil), p.rhs...),
	}
}

// AddRow appends a constraint row Σ coeffs·x sense rhs and returns its index.
// Coefficients must reference variables that already exist. Duplicate indices
// within one row are summed.
func (p *Problem) AddRow(coeffs []Nonzero, sense Sense, rhs float64) int {
	if n := len(p.cost) - len(p.mark); n > 0 {
		p.mark = append(p.mark, make([]int32, n)...)
	}
	start := len(p.nz)
	p.nz = slices.Grow(p.nz, len(coeffs))
	row := p.nz[start : start : start+len(coeffs)]
	for _, nz := range coeffs {
		if nz.Index < 0 || nz.Index >= len(p.cost) {
			panic(fmt.Sprintf("lp: row references unknown variable %d", nz.Index))
		}
		if floats.ExactZero(nz.Value) {
			continue
		}
		if at := p.mark[nz.Index]; at > 0 {
			row[at-1].Value += nz.Value
			continue
		}
		row = append(row, nz)
		p.mark[nz.Index] = int32(len(row))
	}
	for _, nz := range row {
		p.mark[nz.Index] = 0
	}
	p.nz = p.nz[:start+len(row)]
	p.rows = append(p.rows, row[:len(row):len(row)])
	p.senses = append(p.senses, sense)
	p.rhs = append(p.rhs, rhs)
	return len(p.rows) - 1
}

// Status reports the outcome of a solve.
type Status int8

// Solve outcomes.
const (
	Optimal    Status = iota // an optimal solution was found
	Infeasible               // no point satisfies all constraints and bounds
	Unbounded                // the objective decreases without bound
	IterLimit                // the iteration limit was hit before convergence
	Cancelled                // the context was cancelled mid-solve
	Singular                 // the basis became numerically singular and repair failed
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	case Cancelled:
		return "cancelled"
	case Singular:
		return "singular-basis"
	}
	return fmt.Sprintf("Status(%d)", int8(s))
}

// ColdReason says why a warm-start attempt was abandoned for the cold
// two-phase start; Workspace.warmFinish documents each case.
type ColdReason int8

// Cold-fallback reasons. ColdNone means no warm start was attempted or the
// warm start held.
const (
	ColdNone       ColdReason = iota
	ColdBadBasis              // the basis could not be installed: written for another shape, or singular beyond repair
	ColdBudget                // the dual repair exceeded its pivot budget
	ColdInfeasible            // the dual repair claimed infeasibility (re-verified cold)
	ColdUnbounded             // the primal polish claimed unboundedness (re-verified cold)
	ColdNumerical             // iteration limit, singular basis mid-repair, or failed residual check
	NumColdReasons            // array size for per-reason tallies
)

var coldReasonNames = [NumColdReasons]string{
	"none", "bad-basis", "budget", "infeasible-claim", "unbounded-claim", "numerical",
}

func (r ColdReason) String() string {
	if r >= 0 && r < NumColdReasons {
		return coldReasonNames[r]
	}
	return fmt.Sprintf("ColdReason(%d)", int8(r))
}

// ColdCounts tallies cold fallbacks by reason (index ColdNone stays zero).
type ColdCounts [NumColdReasons]int

// Total reports the fallbacks of every reason together.
func (c ColdCounts) Total() int {
	t := 0
	for _, n := range c {
		t += n
	}
	return t
}

// String renders the non-zero tallies as "reason=n" pairs, "none" when there
// are none.
func (c ColdCounts) String() string {
	var b strings.Builder
	for r, n := range c {
		if n == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%v=%d", ColdReason(r), n)
	}
	if b.Len() == 0 {
		return "none"
	}
	return b.String()
}

// Stats counts what one Workspace did over every solve since it was created
// or last had its counters reset (Workspace.ResetStats). A workspace belongs to one goroutine, so the fields are plain ints; a caller
// running several workspaces sums them with Add once its goroutines have
// joined.
type Stats struct {
	Solves           int
	Iterations       int        // simplex iterations: both phases, warm repair and polish
	DualIterations   int        // dual-simplex repair iterations of warm starts
	IterLimited      int        // solves stopped by the iteration limit
	WarmHits         int        // solves completed from a retained or imported basis
	FlippedColumns   int        // nonbasic columns warm entries moved to their opposite bound, whether or not the warm start held
	CostShifts       int        // warm-entry columns with no bound to flip to, held out of the dual pass by a cost shift
	ColdFallbacks    ColdCounts // warm starts abandoned for a cold solve, by reason
	WorkspaceReuses  int        // solves that re-entered an already-built structure
	Refactorizations int        // Markowitz LU rebuilds of the basis factorization
	UpdateEtas       int        // product-form etas appended between rebuilds
	FillIns          int        // fill-in nonzeros those rebuilds created
	SingularRepairs  int        // dependent basis columns swapped for an artificial
	DegenerateSteps  int        // primal iterations whose ratio test allowed no movement
	BlandIters       int        // primal iterations priced by Bland's rule after a degenerate run
	DualRefreshes    int        // reduced-cost vectors computed from a fresh BTRAN (solve entry, refactorization, closing pass)
	// MaxDualDrift is the largest |maintained − fresh| reduced cost seen when
	// a refresh replaced a vector that had absorbed pivots.
	MaxDualDrift        float64
	CertifiedInfeasible int // warm infeasibility claims accepted on their Farkas certificate, with no cold re-solve
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.Solves += o.Solves
	s.Iterations += o.Iterations
	s.DualIterations += o.DualIterations
	s.IterLimited += o.IterLimited
	s.WarmHits += o.WarmHits
	s.FlippedColumns += o.FlippedColumns
	s.CostShifts += o.CostShifts
	for r, n := range o.ColdFallbacks {
		s.ColdFallbacks[r] += n
	}
	s.WorkspaceReuses += o.WorkspaceReuses
	s.Refactorizations += o.Refactorizations
	s.UpdateEtas += o.UpdateEtas
	s.FillIns += o.FillIns
	s.SingularRepairs += o.SingularRepairs
	s.DegenerateSteps += o.DegenerateSteps
	s.BlandIters += o.BlandIters
	s.DualRefreshes += o.DualRefreshes
	s.MaxDualDrift = max(s.MaxDualDrift, o.MaxDualDrift)
	s.CertifiedInfeasible += o.CertifiedInfeasible
}

// Kernel renders the iteration kernel's own counters as "key=n" pairs, the
// tail of the CLIs' LP lines.
func (s Stats) Kernel() string {
	return fmt.Sprintf("certified_infeasible=%d degenerate_steps=%d bland_iters=%d dual_refreshes=%d max_dual_drift=%.1e",
		s.CertifiedInfeasible, s.DegenerateSteps, s.BlandIters, s.DualRefreshes, s.MaxDualDrift)
}

// Solution is the result of solving a Problem.
type Solution struct {
	Status    Status
	Objective float64 // objective value at X (valid when Status == Optimal)
	// X has one value per problem variable. It is the workspace's storage:
	// valid until the next solve on that workspace, which overwrites it in
	// place. A caller that keeps the point past that copies it; writing into
	// it leaves the workspace's own state alone.
	X          []float64
	Iterations int // total simplex iterations across both phases
	// WarmStarted reports whether the solution was produced by a warm path
	// (basis import or workspace basis reuse) rather than a cold two-phase
	// solve.
	WarmStarted bool
	// ColdFallback says why a warm-start attempt was abandoned for the cold
	// two-phase start whose result this is; ColdNone when none was.
	ColdFallback ColdReason
}

// BasisStatus is where one column, or one row's slack, sits in a Basis.
type BasisStatus uint8

// Basis statuses. A row is Basic when its slack is (the row is inactive) and
// AtLower when the slack is nonbasic, which pins the row at its right-hand
// side; an equality row has no slack and is always AtLower.
const (
	AtLower BasisStatus = iota
	AtUpper
	Basic
)

// Basis is a simplex basis in the portable form LP codes exchange: one status
// per structural column and one per row. It names no slot order and no
// internal column numbering, so besides seeding a later solve of the same
// problem (Options.Start) it can be rewritten entry by entry onto a problem
// whose columns and rows only partly coincide — the cross-round transfer of
// the RAS solver. A start need not be a basis in the strict sense: Basic
// entries beyond the row count are dropped, and rows the Basic columns leave
// uncovered or dependent are covered by their own slacks (Workspace.refactorize).
// Statuses are packed two bits each: a snapshot of an n-column, m-row problem
// is (n+m)/4 bytes, a small fraction of one Solution.X. A Basis a solve
// returned is immutable and may be shared between goroutines.
type Basis struct {
	nCols, nRows int
	bits         []uint64 // 32 statuses per word: columns, then rows
}

// NewBasis returns the slack basis of an nCols × nRows problem: every column
// AtLower, every row Basic.
func NewBasis(nCols, nRows int) *Basis {
	b := allAtLower(nCols, nRows)
	for i := 0; i < nRows; i++ {
		b.SetRow(i, Basic)
	}
	return b
}

func allAtLower(nCols, nRows int) *Basis {
	return &Basis{nCols: nCols, nRows: nRows, bits: make([]uint64, (nCols+nRows+31)/32)}
}

func (b *Basis) at(k int) BasisStatus { return BasisStatus(b.bits[k/32] >> (k % 32 * 2) & 3) }

func (b *Basis) set(k int, st BasisStatus) {
	sh := k % 32 * 2
	b.bits[k/32] = b.bits[k/32]&^(3<<sh) | uint64(st)<<sh
}

// Col reports the status of structural column j, Row that of row i.
func (b *Basis) Col(j int) BasisStatus { return b.at(j) }
func (b *Basis) Row(i int) BasisStatus { return b.at(b.nCols + i) }

// SetCol and SetRow write one status; they are for building a start, never
// for editing a Basis a solve returned.
func (b *Basis) SetCol(j int, st BasisStatus) { b.set(j, st) }
func (b *Basis) SetRow(i int, st BasisStatus) { b.set(b.nCols+i, st) }

// NumCols and NumRows report the shape the basis was written for.
func (b *Basis) NumCols() int { return b.nCols }
func (b *Basis) NumRows() int { return b.nRows }

// Options tunes the solver.
type Options struct {
	// Start warm-starts the solve from the given basis: one a previous solve
	// of the same problem left in its workspace (Workspace.Basis), or one
	// written status by status for this shape. After bound changes (the
	// branch-and-bound case) primal feasibility is restored with dual simplex
	// iterations, which is typically orders of magnitude cheaper than solving
	// from scratch. An unusable basis falls back to a cold start, reported in
	// Solution.ColdFallback. Offering the very Basis the workspace returned
	// last (same pointer) costs no import and, when nothing was solved in
	// between, no refactorization either.
	Start *Basis
	// ReuseBasis warm-starts from the good basis retained inside the
	// workspace — the most recent optimal, artificial-free basis of a solve
	// of the same problem shape — with no export/import allocations at all.
	// When set, the retained basis wins over Start, which then only serves
	// while the workspace holds none; a warm attempt from either that has to
	// be abandoned is re-solved cold.
	ReuseBasis bool
	// RefactorEvery sets how many eta updates accumulate before the basis
	// factorization is rebuilt from scratch. Rebuilds can also trigger
	// earlier when eta-file fill outgrows the factors; both triggers are
	// deterministic counts, never wall-clock. Zero means the default (32);
	// negative refactorizes after every pivot (testing).
	RefactorEvery int
}

// tol is the feasibility/optimality tolerance of every solve. Typed, so that
// the products formed from it (tol*10, tol*1e3) round exactly as they do on a
// float64 variable.
const tol float64 = 1e-9

// iterLimit, when positive, replaces the iteration budget of a solve — the
// total simplex iterations across both phases, by default proportional to
// the problem size. Only tests set it.
var iterLimit = 0

// refactorEvery resolves the eta-count refactorization cadence.
func (o *Options) refactorEvery() int {
	switch {
	case o.RefactorEvery < 0:
		return 1
	case o.RefactorEvery == 0:
		return defaultRefactorEvery
	default:
		return o.RefactorEvery
	}
}

// SolveWith minimizes the problem's objective on the workspace ws and returns
// the solution. The problem itself is not modified and may be solved
// repeatedly, including after further rows or variables are added. The
// workspace retains the problem's simplex structure and all scratch buffers
// between calls, and the returned Solution.X is one of them, valid until the
// workspace's next solve: a steady-state re-solve allocates nothing. A
// workspace must not be used by more than one goroutine at a time, and is
// retargeted automatically when given a different problem or shape.
//
// Cancelling ctx aborts the simplex iteration loops promptly; the returned
// Solution then has Status Cancelled and carries whatever (possibly
// infeasible) point the solver held when it stopped.
func (p *Problem) SolveWith(ctx context.Context, opt Options, ws *Workspace) Solution {
	if ctx == nil {
		ctx = context.Background() //raslint:allow ctxflow nil ctx defaults to Background at the public API boundary
	}
	sol := ws.solve(ctx, p, opt)
	ws.stats.Solves++
	ws.stats.Iterations += sol.Iterations
	if sol.Status == IterLimit {
		ws.stats.IterLimited++
	}
	return sol
}
