package lint

// Sparse conditional constant/interval propagation over the SSA-lite form
// (ssa.go), plus the float-fact prover the nanguard rule runs on. Two fact
// families, both demand-driven:
//
//   - Integer intervals with symbolic length bounds: a bound is either a
//     constant c or len(V)+c for a specific SSA value V (the slice header
//     version whose length the bound references). Intervals come from
//     literals, len/cap, loop bounds, and branch conditions; the symbolic
//     form is what lets `for i := 0; i < len(xs); i++ { xs[i] }` prove
//     containment without knowing any concrete length.
//   - Float facts are deliberately coarse — proven nonzero / positive /
//     nonnegative — derived from nonzero literals, designated exact-compare
//     guard helpers (the same seam floatcmp enforces), math.Abs threshold
//     guards, sign guards, and products of proven factors. There is no float
//     interval arithmetic: rounding makes it unsound to fake.
//
// Guard refinement walks the immediate-dominator chain of the query block:
// an edge p→c contributes its branch condition when c is p's conditional
// successor and p is c's only reachable predecessor (so the fact holds on
// every path into c). Phi operands are additionally refined along their own
// incoming edge, which is what makes clamp patterns
// (`if i >= n { i = n - 1 }`) join to a bounded interval.
//
// Loops terminate by a pending/widen protocol: evaluating a phi that cycles
// back into itself first joins the acyclic operands, publishes that
// tentative result, re-evaluates the cyclic operands against it, and widens
// exactly the bounds that grew. `i := 0; i++` therefore keeps its proven
// lower bound of 0 while the upper bound widens to +inf (and is then
// re-bounded by the loop condition at each use site).

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"math"
)

// evalDepthLimit cuts pathological refinement recursion; beyond it every
// query degrades to "unknown", which is sound.
const evalDepthLimit = 64

// ivBound is one interval endpoint: unbounded, a constant c, or len(lenOf)+c.
type ivBound struct {
	inf   bool
	c     int64
	lenOf *ssaValue
}

func constBound(c int64) ivBound { return ivBound{c: c} }
func infBound() ivBound          { return ivBound{inf: true} }
func lenBound(v *ssaValue, c int64) ivBound {
	return ivBound{c: c, lenOf: v}
}

// interval is [lo, hi]; either endpoint may be unbounded (in its own
// direction: lo unbounded means -inf, hi unbounded means +inf).
type interval struct {
	lo, hi ivBound
}

func topInterval() interval { return interval{lo: infBound(), hi: infBound()} }

func constInterval(c int64) interval {
	return interval{lo: constBound(c), hi: constBound(c)}
}

// satAdd is saturating int64 addition; overflow reports failure so callers
// widen to unbounded instead of wrapping.
func satAdd(a, b int64) (int64, bool) {
	s := a + b
	if (b > 0 && s < a) || (b < 0 && s > a) {
		return 0, false
	}
	return s, true
}

// addConst shifts a bound by a constant, widening on overflow.
func addConst(b ivBound, d int64) ivBound {
	if b.inf {
		return b
	}
	s, ok := satAdd(b.c, d)
	if !ok {
		return infBound()
	}
	return ivBound{c: s, lenOf: b.lenOf}
}

// ---- bound joins (union) ----

// joinLo picks a sound lower bound below both a and b.
func joinLo(a, b ivBound) ivBound {
	if a.inf || b.inf {
		return infBound()
	}
	switch {
	case a.lenOf == b.lenOf: // same symbol (or both constant)
		return ivBound{c: min(a.c, b.c), lenOf: a.lenOf}
	default:
		// len(V)+c >= c because len >= 0, so the constant parts alone give a
		// sound lower bound for either mixed or differently-symboled pair.
		return constBound(min(a.c, b.c))
	}
}

// joinHi picks a sound upper bound above both a and b.
func joinHi(a, b ivBound) ivBound {
	if a.inf || b.inf {
		return infBound()
	}
	switch {
	case a.lenOf == b.lenOf:
		return ivBound{c: max(a.c, b.c), lenOf: a.lenOf}
	case a.lenOf != nil && b.lenOf == nil:
		// max(len(V)+c, d): d <= len(V)+d, so len(V)+max(c,d) covers both.
		return ivBound{c: max(a.c, b.c), lenOf: a.lenOf}
	case a.lenOf == nil && b.lenOf != nil:
		return ivBound{c: max(a.c, b.c), lenOf: b.lenOf}
	default:
		return infBound()
	}
}

func joinIntervals(a, b interval) interval {
	return interval{lo: joinLo(a.lo, b.lo), hi: joinHi(a.hi, b.hi)}
}

// ---- bound meets (refinement) ----

// boundGE reports whether a >= b is provable.
func boundGE(a, b ivBound) bool {
	if a.inf || b.inf {
		return false
	}
	if a.lenOf == b.lenOf {
		return a.c >= b.c
	}
	if a.lenOf != nil && b.lenOf == nil {
		return a.c >= b.c // len(V)+c >= c >= b.c
	}
	return false
}

// meetLo picks the tighter (larger) of two lower bounds, preferring the new
// fact when the pair is incomparable.
func meetLo(old, new ivBound) ivBound {
	if new.inf {
		return old
	}
	if old.inf {
		return new
	}
	if boundGE(old, new) {
		return old
	}
	return new
}

// meetHi picks the tighter (smaller) of two upper bounds.
func meetHi(old, new ivBound) ivBound {
	if new.inf {
		return old
	}
	if old.inf {
		return new
	}
	if boundGE(new, old) {
		return old
	}
	return new
}

// ---- bound arithmetic for +/- ----

func addLoBounds(a, b ivBound) ivBound {
	if a.inf || b.inf {
		return infBound()
	}
	s, ok := satAdd(a.c, b.c)
	if !ok {
		return infBound()
	}
	switch {
	case a.lenOf == nil:
		return ivBound{c: s, lenOf: b.lenOf}
	case b.lenOf == nil:
		return ivBound{c: s, lenOf: a.lenOf}
	default:
		// len(A)+len(B)+s >= s: drop both symbols, keep the constant floor.
		return constBound(s)
	}
}

func addHiBounds(a, b ivBound) ivBound {
	if a.inf || b.inf {
		return infBound()
	}
	s, ok := satAdd(a.c, b.c)
	if !ok {
		return infBound()
	}
	switch {
	case a.lenOf == nil:
		return ivBound{c: s, lenOf: b.lenOf}
	case b.lenOf == nil:
		return ivBound{c: s, lenOf: a.lenOf}
	default:
		return infBound()
	}
}

// subLoBound computes a sound lower bound for x-y from x.lo and y.hi.
func subLoBound(xlo, yhi ivBound) ivBound {
	if xlo.inf || yhi.inf {
		return infBound()
	}
	d, ok := satAdd(xlo.c, -yhi.c)
	if !ok {
		return infBound()
	}
	switch {
	case xlo.lenOf == yhi.lenOf: // symbols cancel (or both constant)
		return constBound(d)
	case yhi.lenOf == nil:
		return ivBound{c: d, lenOf: xlo.lenOf}
	default:
		return infBound()
	}
}

// subHiBound computes a sound upper bound for x-y from x.hi and y.lo.
func subHiBound(xhi, ylo ivBound) ivBound {
	if xhi.inf || ylo.inf {
		return infBound()
	}
	d, ok := satAdd(xhi.c, -ylo.c)
	if !ok {
		return infBound()
	}
	switch {
	case xhi.lenOf == ylo.lenOf:
		return constBound(d)
	case ylo.lenOf == nil:
		return ivBound{c: d, lenOf: xhi.lenOf}
	case xhi.lenOf == nil:
		// c - (len(V)+c') <= c - c' because len >= 0.
		return constBound(d)
	default:
		return infBound()
	}
}

// loGEZero reports whether the lower bound proves the value nonnegative.
func loGEZero(lo ivBound) bool {
	return !lo.inf && lo.c >= 0 // len(V)+c >= c covers the symbolic case
}

// ---- evaluator ----

// evaluator answers interval and float-fact queries over one function's SSA
// form. Base value intervals are memoized; guard-refined (context-dependent)
// queries are recomputed per site, bounded by evalDepthLimit.
type evaluator struct {
	va *valueAnalysis
	f  *ssaFunc

	memo    map[*ssaValue]interval
	pending map[*ssaValue]bool
	// cycleVal publishes a phi's tentative interval while its widening loop
	// re-evaluates the cycle; noMemo suppresses memoization during those
	// re-evaluations so throwaway results never persist.
	cycleVal map[*ssaValue]interval
	noMemo   int

	// factMemo caches float-fact proofs keyed by value, fact, and block.
	factMemo map[floatFactKey]bool
	factBusy map[floatFactKey]bool

	// condsMemo caches the dominating-condition chain per block.
	condsMemo map[*cfgBlock][]domEdge
}

type floatFact uint8

const (
	factNonzero floatFact = iota
	factPositive
	factNonNeg
)

type floatFactKey struct {
	v     *ssaValue
	fact  floatFact
	block *cfgBlock
}

// domEdge is one condition known to hold on entry to the query block.
type domEdge struct {
	cond   ast.Expr
	isTrue bool
	from   *cfgBlock
}

func newEvaluator(va *valueAnalysis, f *ssaFunc) *evaluator {
	return &evaluator{
		va:        va,
		f:         f,
		memo:      map[*ssaValue]interval{},
		pending:   map[*ssaValue]bool{},
		cycleVal:  map[*ssaValue]interval{},
		factMemo:  map[floatFactKey]bool{},
		factBusy:  map[floatFactKey]bool{},
		condsMemo: map[*cfgBlock][]domEdge{},
	}
}

func (ev *evaluator) info() *types.Info { return ev.f.pkg.Info }

// branchCond resolves the branch condition of the edge p→c, when p ends in
// a two-way conditional branch. The CFG builder's edge order fixes the
// polarity: if-conditions put the then-block first; for-heads put the exit
// block first.
func branchCond(p, c *cfgBlock) (cond ast.Expr, isTrue, ok bool) {
	if len(p.succs) != 2 || len(p.stmts) == 0 {
		return nil, false, false
	}
	switch s := p.stmts[len(p.stmts)-1].(type) {
	case *ast.IfStmt:
		if c == p.succs[0] {
			return s.Cond, true, true
		}
		if c == p.succs[1] {
			return s.Cond, false, true
		}
	case *ast.ForStmt:
		if s.Cond == nil {
			return nil, false, false
		}
		if c == p.succs[1] {
			return s.Cond, true, true
		}
		if c == p.succs[0] {
			return s.Cond, false, true
		}
	}
	return nil, false, false
}

// dominatingConds collects the branch conditions proven on every path into
// b: for each step c of b's dominator chain whose only reachable
// predecessor p is its immediate dominator, the p→c edge condition holds.
func (ev *evaluator) dominatingConds(b *cfgBlock) []domEdge {
	if conds, ok := ev.condsMemo[b]; ok {
		return conds
	}
	var out []domEdge
	cur := b
	for cur != ev.f.cfg.entry {
		p := ev.f.idom[cur]
		if p == nil || p == cur {
			break
		}
		if preds := ev.f.preds[cur]; len(preds) == 1 && preds[0] == p {
			if cond, isTrue, ok := branchCond(p, cur); ok {
				out = append(out, domEdge{cond: cond, isTrue: isTrue, from: p})
			}
		}
		cur = p
	}
	ev.condsMemo[b] = out
	return out
}

// ---- integer intervals ----

// isIntValue reports whether v carries an integer type.
func (ev *evaluator) isIntValue(v *ssaValue) bool {
	b, ok := v.obj.Type().Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// useInterval is the public query: the interval of value v as observed in
// block b, guard-refined along b's dominator chain.
func (ev *evaluator) useInterval(v *ssaValue, b *cfgBlock, depth int) interval {
	iv, _ := ev.valueInterval(v, depth)
	return ev.refineByGuards(v, iv, b, depth)
}

// valueInterval computes v's base (context-free) interval. The second
// result reports a cycle in progress: pending results are never memoized
// and degrade to "unknown" if they survive to the top.
//
// Phi cycles use an iterate-verify-widen protocol: the acyclic operand join
// is published as a tentative value, the cycle is re-evaluated against it,
// and any bound that grew is widened to unbounded; the loop repeats until
// re-evaluation confirms a post-fixpoint (at most three widenings, one per
// direction plus the verifying pass). Re-evaluations run with memoization
// suppressed so intermediate results computed against a tentative value
// never leak into the cache.
func (ev *evaluator) valueInterval(v *ssaValue, depth int) (interval, bool) {
	if depth > evalDepthLimit {
		return topInterval(), false
	}
	if iv, ok := ev.memo[v]; ok {
		return iv, false
	}
	if iv, ok := ev.cycleVal[v]; ok {
		return iv, false
	}
	if ev.pending[v] {
		return topInterval(), true
	}
	if !ev.isIntValue(v) {
		if ev.noMemo == 0 {
			ev.memo[v] = topInterval()
		}
		return topInterval(), false
	}
	ev.pending[v] = true
	iv, cyc := ev.computeInterval(v, depth)
	delete(ev.pending, v)
	if cyc && v.kind == ssaPhi {
		cur := iv
		for round := 0; round < 4; round++ {
			ev.cycleVal[v] = cur
			ev.noMemo++
			iv2, cyc2 := ev.computeInterval(v, depth)
			ev.noMemo--
			delete(ev.cycleVal, v)
			if cyc2 {
				// Another cycle is still unresolved through this one
				// (mutually recursive loops): give up soundly.
				cur = topInterval()
				break
			}
			grew := false
			if !cur.lo.inf && !boundGE(iv2.lo, cur.lo) {
				cur.lo = infBound()
				grew = true
			}
			if !cur.hi.inf && (iv2.hi.inf || !boundGE(cur.hi, iv2.hi)) {
				cur.hi = infBound()
				grew = true
			}
			if !grew {
				break // verified: one more iteration stays inside cur
			}
		}
		if ev.noMemo == 0 {
			ev.memo[v] = cur
		}
		return cur, false
	}
	if cyc {
		return iv, true
	}
	if ev.noMemo == 0 {
		ev.memo[v] = iv
	}
	return iv, false
}

func (ev *evaluator) computeInterval(v *ssaValue, depth int) (interval, bool) {
	switch v.kind {
	case ssaZero:
		return constInterval(0), false
	case ssaDef:
		if v.opTok != token.ILLEGAL && v.prev != nil {
			prev, pend := ev.valueInterval(v.prev, depth+1)
			if pend {
				return topInterval(), true
			}
			prev = ev.refineByGuards(v.prev, prev, v.block, depth+1)
			var rhs interval
			if v.opRhs == nil {
				rhs = constInterval(1) // ++ / --
			} else {
				var p bool
				rhs, p = ev.exprInterval(v.opRhs, v.block, depth+1)
				if p {
					return topInterval(), true
				}
			}
			return ev.applyArith(v.opTok, prev, rhs), false
		}
		if v.rhs != nil {
			return ev.exprInterval(v.rhs, v.block, depth+1)
		}
		return topInterval(), false
	case ssaRange:
		if v.rangeIsKey && v.rangeSliceLike {
			// Keys of a slice/array/string range are 0 <= k < len(x); with a
			// tracked operand the upper bound is symbolic, otherwise just
			// nonnegative.
			if v.rangeX != nil {
				return interval{lo: constBound(0), hi: lenBound(v.rangeX, -1)}, false
			}
			return interval{lo: constBound(0), hi: infBound()}, false
		}
		return topInterval(), false
	case ssaPhi:
		preds := ev.f.preds[v.block]
		out := interval{}
		first := true
		cyc := false
		for i, op := range v.phiArgs {
			if op == nil || i >= len(preds) {
				continue
			}
			piv, pend := ev.valueInterval(op, depth+1)
			if pend {
				cyc = true
				continue
			}
			p := preds[i]
			piv = ev.refineByGuards(op, piv, p, depth+1)
			if cond, isTrue, ok := branchCond(p, v.block); ok {
				piv = ev.refineByCond(op, piv, cond, isTrue, p, depth+1)
			}
			if first {
				out = piv
				first = false
			} else {
				out = joinIntervals(out, piv)
			}
		}
		if first {
			return topInterval(), cyc
		}
		return out, cyc
	}
	return topInterval(), false
}

// applyArith transfers one arithmetic op over intervals.
func (ev *evaluator) applyArith(op token.Token, a, b interval) interval {
	switch op {
	case token.ADD:
		return interval{lo: addLoBounds(a.lo, b.lo), hi: addHiBounds(a.hi, b.hi)}
	case token.SUB:
		return interval{lo: subLoBound(a.lo, b.hi), hi: subHiBound(a.hi, b.lo)}
	case token.MUL:
		return mulIntervals(a, b)
	case token.QUO:
		// x/m with x >= 0 and m >= 1 stays within [0, x.hi].
		if loGEZero(a.lo) && !b.lo.inf && b.lo.lenOf == nil && b.lo.c >= 1 {
			return interval{lo: constBound(0), hi: a.hi}
		}
		return topInterval()
	case token.REM:
		// x%m with x >= 0 and m >= 1 lies in [0, m.hi-1] — the i%n wrap
		// pattern. A symbolic m.lo (len(V)+c, c>=1) also proves m >= 1.
		mPos := !b.lo.inf && b.lo.c >= 1
		if loGEZero(a.lo) && mPos && !b.hi.inf {
			return interval{lo: constBound(0), hi: addConst(b.hi, -1)}
		}
		return topInterval()
	}
	return topInterval()
}

// mulIntervals multiplies constant-bounded intervals; anything symbolic or
// unbounded degrades to top.
func mulIntervals(a, b interval) interval {
	if a.lo.inf || a.hi.inf || b.lo.inf || b.hi.inf ||
		a.lo.lenOf != nil || a.hi.lenOf != nil || b.lo.lenOf != nil || b.hi.lenOf != nil {
		return topInterval()
	}
	vals := []int64{}
	for _, x := range []int64{a.lo.c, a.hi.c} {
		for _, y := range []int64{b.lo.c, b.hi.c} {
			hx, hy := big64(x), big64(y)
			p := hx * hy
			if x != 0 && (p/x != y || big64(p) != p) {
				return topInterval()
			}
			vals = append(vals, p)
		}
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals[1:] {
		lo, hi = min(lo, v), max(hi, v)
	}
	return interval{lo: constBound(lo), hi: constBound(hi)}
}

// big64 guards against overflow near the int64 edges by refusing huge
// operands outright.
func big64(x int64) int64 {
	if x > math.MaxInt32 || x < math.MinInt32 {
		return math.MaxInt64
	}
	return x
}

// refineByGuards folds every dominating branch condition about v into iv.
func (ev *evaluator) refineByGuards(v *ssaValue, iv interval, b *cfgBlock, depth int) interval {
	if depth > evalDepthLimit {
		return iv
	}
	for _, e := range ev.dominatingConds(b) {
		iv = ev.refineByCond(v, iv, e.cond, e.isTrue, e.from, depth)
	}
	return iv
}

// refineByCond narrows iv with one branch condition known to evaluate to
// isTrue, decomposing &&/||/! and comparison forms.
func (ev *evaluator) refineByCond(v *ssaValue, iv interval, cond ast.Expr, isTrue bool, condBlock *cfgBlock, depth int) interval {
	if depth > evalDepthLimit {
		return iv
	}
	cond = ast.Unparen(cond)
	switch c := cond.(type) {
	case *ast.UnaryExpr:
		if c.Op == token.NOT {
			return ev.refineByCond(v, iv, c.X, !isTrue, condBlock, depth)
		}
	case *ast.BinaryExpr:
		switch c.Op {
		case token.LAND:
			if isTrue {
				iv = ev.refineByCond(v, iv, c.X, true, condBlock, depth)
				iv = ev.refineByCond(v, iv, c.Y, true, condBlock, depth)
			}
			return iv
		case token.LOR:
			if !isTrue {
				iv = ev.refineByCond(v, iv, c.X, false, condBlock, depth)
				iv = ev.refineByCond(v, iv, c.Y, false, condBlock, depth)
			}
			return iv
		case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
			return ev.refineByCompare(v, iv, c, isTrue, condBlock, depth)
		}
	}
	return iv
}

// negateCmp flips a comparison operator for the false branch.
func negateCmp(op token.Token) token.Token {
	switch op {
	case token.LSS:
		return token.GEQ
	case token.LEQ:
		return token.GTR
	case token.GTR:
		return token.LEQ
	case token.GEQ:
		return token.LSS
	case token.EQL:
		return token.NEQ
	case token.NEQ:
		return token.EQL
	}
	return token.ILLEGAL
}

// swapCmp mirrors a comparison operator across its operands.
func swapCmp(op token.Token) token.Token {
	switch op {
	case token.LSS:
		return token.GTR
	case token.LEQ:
		return token.GEQ
	case token.GTR:
		return token.LSS
	case token.GEQ:
		return token.LEQ
	}
	return op
}

// sideRef normalizes a comparison operand to (value, offset): a tracked
// identifier, optionally plus/minus a constant (`i+1 < len(xs)` constrains
// i with offset 1).
func (ev *evaluator) sideRef(e ast.Expr) (*ssaValue, int64, bool) {
	e = ast.Unparen(e)
	if id, ok := e.(*ast.Ident); ok {
		if v := ev.f.useOf[id]; v != nil {
			return v, 0, true
		}
		return nil, 0, false
	}
	be, ok := e.(*ast.BinaryExpr)
	if !ok || (be.Op != token.ADD && be.Op != token.SUB) {
		return nil, 0, false
	}
	if id, ok := ast.Unparen(be.X).(*ast.Ident); ok {
		if v := ev.f.useOf[id]; v != nil {
			if c, ok := ev.constInt(be.Y); ok {
				if be.Op == token.SUB {
					c = -c
				}
				return v, c, true
			}
		}
	}
	if be.Op == token.ADD {
		if id, ok := ast.Unparen(be.Y).(*ast.Ident); ok {
			if v := ev.f.useOf[id]; v != nil {
				if c, ok := ev.constInt(be.X); ok {
					return v, c, true
				}
			}
		}
	}
	return nil, 0, false
}

// constInt folds e to an int64 constant via the type checker.
func (ev *evaluator) constInt(e ast.Expr) (int64, bool) {
	tv, ok := ev.info().Types[e]
	if !ok || tv.Value == nil {
		return 0, false
	}
	if tv.Value.Kind() != constant.Int {
		return 0, false
	}
	return constant.Int64Val(tv.Value)
}

// mentionsValue reports whether expression e contains an identifier
// resolving to v — guard against self-referential refinement loops.
func (ev *evaluator) mentionsValue(e ast.Expr, v *ssaValue) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && ev.f.useOf[id] == v {
			found = true
		}
		return !found
	})
	return found
}

// refineByCompare applies one comparison fact about v.
func (ev *evaluator) refineByCompare(v *ssaValue, iv interval, c *ast.BinaryExpr, isTrue bool, condBlock *cfgBlock, depth int) interval {
	op := c.Op
	if !isTrue {
		op = negateCmp(op)
	}
	lhs, rhs := c.X, c.Y
	lv, loff, lok := ev.sideRef(lhs)
	if !lok || lv != v {
		// Try the mirrored orientation: e OP v.
		rv, roff, rok := ev.sideRef(rhs)
		if !rok || rv != v {
			return iv
		}
		lhs, rhs = rhs, lhs
		lv, loff = rv, roff
		op = swapCmp(op)
	}
	_ = lhs
	if ev.mentionsValue(rhs, v) {
		return iv
	}
	R, pend := ev.exprInterval(rhs, condBlock, depth+1)
	if pend {
		return iv
	}
	// v+loff OP R  ⇒  constraints on v.
	switch op {
	case token.LSS:
		iv.hi = meetHi(iv.hi, addConst(R.hi, -1-loff))
	case token.LEQ:
		iv.hi = meetHi(iv.hi, addConst(R.hi, -loff))
	case token.GTR:
		iv.lo = meetLo(iv.lo, addConst(R.lo, 1-loff))
	case token.GEQ:
		iv.lo = meetLo(iv.lo, addConst(R.lo, -loff))
	case token.EQL:
		iv.lo = meetLo(iv.lo, addConst(R.lo, -loff))
		iv.hi = meetHi(iv.hi, addConst(R.hi, -loff))
	case token.NEQ:
		// Shrink only when the excluded point sits exactly on an endpoint.
		if !R.lo.inf && !R.hi.inf && R.lo.lenOf == R.hi.lenOf && R.lo.c == R.hi.c {
			excl := addConst(R.lo, -loff)
			if !iv.lo.inf && iv.lo.lenOf == excl.lenOf && iv.lo.c == excl.c {
				iv.lo = addConst(iv.lo, 1)
			}
			if !iv.hi.inf && iv.hi.lenOf == excl.lenOf && iv.hi.c == excl.c {
				iv.hi = addConst(iv.hi, -1)
			}
		}
	}
	return iv
}

// exprInterval evaluates an integer expression's interval in block b.
func (ev *evaluator) exprInterval(e ast.Expr, b *cfgBlock, depth int) (interval, bool) {
	if depth > evalDepthLimit {
		return topInterval(), false
	}
	e = ast.Unparen(e)

	// Constant folding first: covers literals, named constants, and
	// constant arithmetic in one shot.
	if c, ok := ev.constInt(e); ok {
		return constInterval(c), false
	}

	switch x := e.(type) {
	case *ast.Ident:
		if v := ev.f.useOf[x]; v != nil {
			iv, pend := ev.valueInterval(v, depth+1)
			if pend {
				return topInterval(), true
			}
			return ev.refineByGuards(v, iv, b, depth+1), false
		}
	case *ast.UnaryExpr:
		if x.Op == token.SUB {
			iv, pend := ev.exprInterval(x.X, b, depth+1)
			if pend {
				return topInterval(), true
			}
			return negateInterval(iv), false
		}
	case *ast.BinaryExpr:
		switch x.Op {
		case token.ADD, token.SUB, token.MUL, token.QUO, token.REM:
			a, p1 := ev.exprInterval(x.X, b, depth+1)
			bb, p2 := ev.exprInterval(x.Y, b, depth+1)
			if p1 || p2 {
				return topInterval(), true
			}
			return ev.applyArith(x.Op, a, bb), false
		}
	case *ast.CallExpr:
		return ev.callInterval(x, b, depth)
	}
	return topInterval(), false
}

// negateInterval flips a constant-bounded interval; symbolic bounds widen.
func negateInterval(iv interval) interval {
	var out interval
	if iv.hi.inf || iv.hi.lenOf != nil {
		out.lo = infBound()
	} else {
		out.lo = constBound(-iv.hi.c)
	}
	if iv.lo.inf || iv.lo.lenOf != nil {
		out.hi = infBound()
	} else {
		out.hi = constBound(-iv.lo.c)
	}
	return out
}

// callInterval evaluates len/cap/max/min builtins and known callees'
// return facts.
func (ev *evaluator) callInterval(call *ast.CallExpr, b *cfgBlock, depth int) (interval, bool) {
	info := ev.info()
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if bi, isB := info.Uses[id].(*types.Builtin); isB {
			switch bi.Name() {
			case "len":
				return ev.lenInterval(call, false), false
			case "cap":
				return ev.lenInterval(call, true), false
			case "max":
				out := interval{}
				for i, a := range call.Args {
					iv, pend := ev.exprInterval(a, b, depth+1)
					if pend {
						return topInterval(), true
					}
					if i == 0 {
						out = iv
					} else {
						out.lo = maxLoBounds(out.lo, iv.lo)
						out.hi = joinHi(out.hi, iv.hi)
					}
				}
				return out, false
			case "min":
				out := interval{}
				for i, a := range call.Args {
					iv, pend := ev.exprInterval(a, b, depth+1)
					if pend {
						return topInterval(), true
					}
					if i == 0 {
						out = iv
					} else {
						out.lo = joinLo(out.lo, iv.lo)
						out.hi = minHiBounds(out.hi, iv.hi)
					}
				}
				return out, false
			}
			return topInterval(), false
		}
	}
	// Interprocedural: a known callee whose single result is proven within
	// [0, len(param)) maps through the argument bound to that parameter.
	if fn := funcObjOf(info, call.Fun); fn != nil && ev.va != nil {
		if rf := ev.va.ret[fn]; rf != nil && len(rf.results) == 1 {
			if p := rf.results[0].ltLenOf; p >= 0 {
				if arg := callArgExpr(info, call, fn, p); arg != nil {
					if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
						if xv := ev.f.useOf[id]; xv != nil {
							return interval{lo: constBound(0), hi: lenBound(xv, -1)}, false
						}
					}
				}
			}
		}
	}
	return topInterval(), false
}

// maxLoBounds: lower bound of max(a,b) is the larger of the lower bounds.
func maxLoBounds(a, b ivBound) ivBound {
	if a.inf {
		return b
	}
	if b.inf {
		return a
	}
	if boundGE(a, b) {
		return a
	}
	if boundGE(b, a) {
		return b
	}
	return a
}

// minHiBounds: upper bound of min(a,b) is the smaller of the upper bounds.
func minHiBounds(a, b ivBound) ivBound {
	if a.inf {
		return b
	}
	if b.inf {
		return a
	}
	if boundGE(b, a) {
		return a
	}
	if boundGE(a, b) {
		return b
	}
	return a
}

// lenInterval evaluates len(x) / cap(x): exact symbolic for a tracked slice
// identifier, constant for arrays, nonnegative otherwise.
func (ev *evaluator) lenInterval(call *ast.CallExpr, isCap bool) interval {
	if len(call.Args) != 1 {
		return topInterval()
	}
	arg := ast.Unparen(call.Args[0])
	if n, ok := constArrayLen(ev.info(), arg); ok {
		return constInterval(n)
	}
	if id, ok := arg.(*ast.Ident); ok {
		if v := ev.f.useOf[id]; v != nil {
			if _, isSlice := v.obj.Type().Underlying().(*types.Slice); isSlice {
				if isCap {
					// cap(x) >= len(x); exact only for len.
					return interval{lo: lenBound(v, 0), hi: infBound()}
				}
				return interval{lo: lenBound(v, 0), hi: lenBound(v, 0)}
			}
		}
	}
	return interval{lo: constBound(0), hi: infBound()}
}

// constArrayLen resolves e's array length when e has an array (or pointer
// to array) type.
func constArrayLen(info *types.Info, e ast.Expr) (int64, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return 0, false
	}
	t := tv.Type.Underlying()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem().Underlying()
	}
	if a, ok := t.(*types.Array); ok {
		return a.Len(), true
	}
	return 0, false
}

// callArgExpr resolves the argument expression bound to paramVars-index p
// of a call to fn (receiver first), nil when unresolvable or variadic-fuzzy.
func callArgExpr(info *types.Info, call *ast.CallExpr, fn *types.Func, p int) ast.Expr {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	var args []ast.Expr
	if sig.Recv() != nil {
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return nil
		}
		selInfo, ok := info.Selections[sel]
		if !ok || selInfo.Kind() != types.MethodVal {
			return nil
		}
		args = append(args, sel.X)
	}
	args = append(args, call.Args...)
	if sig.Variadic() && p >= len(paramVars(fn))-1 {
		return nil
	}
	if p < 0 || p >= len(args) {
		return nil
	}
	return args[p]
}

// ---- float facts ----

// constFloatSign folds e and classifies the constant: -1/0/+1, reported via
// (sign, ok).
func (ev *evaluator) constFloatSign(e ast.Expr) (int, bool) {
	tv, ok := ev.info().Types[e]
	if !ok || tv.Value == nil {
		return 0, false
	}
	switch tv.Value.Kind() {
	case constant.Int, constant.Float:
		return constant.Sign(tv.Value), true
	}
	return 0, false
}

// provenNonzero reports whether float expression e is proven nonzero on
// every path to block b.
func (ev *evaluator) provenNonzero(e ast.Expr, b *cfgBlock, depth int) bool {
	if depth > evalDepthLimit {
		return false
	}
	e = ast.Unparen(e)
	if s, ok := ev.constFloatSign(e); ok {
		return s != 0
	}
	switch x := e.(type) {
	case *ast.Ident:
		if v := ev.f.useOf[x]; v != nil {
			return ev.provenFactValue(v, factNonzero, b, depth+1)
		}
	case *ast.UnaryExpr:
		if x.Op == token.SUB {
			return ev.provenNonzero(x.X, b, depth+1)
		}
	case *ast.BinaryExpr:
		if x.Op == token.MUL {
			return ev.provenNonzero(x.X, b, depth+1) && ev.provenNonzero(x.Y, b, depth+1)
		}
	case *ast.CallExpr:
		if name, arg := mathUnaryCall(ev.info(), x); arg != nil {
			switch name {
			case "Abs":
				return ev.provenNonzero(arg, b, depth+1)
			case "Sqrt":
				return ev.provenPositive(arg, b, depth+1)
			}
		}
		if ev.builtinExtremum(x, b, depth, factNonzero) {
			return true
		}
		if ev.convIntFact(x, b, depth, factNonzero) {
			return true
		}
		if ev.callFact(x, factNonzero) {
			return true
		}
	}
	return ev.provenPositive(e, b, depth+1)
}

// provenPositive reports whether float expression e is proven > 0.
func (ev *evaluator) provenPositive(e ast.Expr, b *cfgBlock, depth int) bool {
	if depth > evalDepthLimit {
		return false
	}
	e = ast.Unparen(e)
	if s, ok := ev.constFloatSign(e); ok {
		return s > 0
	}
	switch x := e.(type) {
	case *ast.Ident:
		if v := ev.f.useOf[x]; v != nil {
			return ev.provenFactValue(v, factPositive, b, depth+1)
		}
	case *ast.BinaryExpr:
		switch x.Op {
		case token.MUL, token.QUO:
			return ev.provenPositive(x.X, b, depth+1) && ev.provenPositive(x.Y, b, depth+1)
		case token.ADD:
			px := ev.provenPositive(x.X, b, depth+1)
			py := ev.provenPositive(x.Y, b, depth+1)
			if px && py {
				return true
			}
			// positive + nonneg (either order) stays positive.
			if px && ev.provenNonNeg(x.Y, b, depth+1) {
				return true
			}
			if py && ev.provenNonNeg(x.X, b, depth+1) {
				return true
			}
		}
	case *ast.CallExpr:
		if name, arg := mathUnaryCall(ev.info(), x); arg != nil {
			switch name {
			case "Abs":
				return ev.provenNonzero(arg, b, depth+1)
			case "Sqrt":
				return ev.provenPositive(arg, b, depth+1)
			}
		}
		if ev.builtinExtremum(x, b, depth, factPositive) {
			return true
		}
		if ev.convIntFact(x, b, depth, factPositive) {
			return true
		}
		if ev.callFact(x, factPositive) {
			return true
		}
	}
	return false
}

// provenNonNeg reports whether float expression e is proven >= 0.
func (ev *evaluator) provenNonNeg(e ast.Expr, b *cfgBlock, depth int) bool {
	if depth > evalDepthLimit {
		return false
	}
	e = ast.Unparen(e)
	if s, ok := ev.constFloatSign(e); ok {
		return s >= 0
	}
	switch x := e.(type) {
	case *ast.Ident:
		if v := ev.f.useOf[x]; v != nil {
			if ev.provenFactValue(v, factNonNeg, b, depth+1) {
				return true
			}
			return ev.provenFactValue(v, factPositive, b, depth+1)
		}
	case *ast.BinaryExpr:
		switch x.Op {
		case token.MUL:
			// A square is nonnegative (x*x with both sides the same value).
			if lx, ok1 := ast.Unparen(x.X).(*ast.Ident); ok1 {
				if ly, ok2 := ast.Unparen(x.Y).(*ast.Ident); ok2 {
					vx, vy := ev.f.useOf[lx], ev.f.useOf[ly]
					if vx != nil && vx == vy {
						return true
					}
				}
			}
			return ev.provenNonNeg(x.X, b, depth+1) && ev.provenNonNeg(x.Y, b, depth+1)
		case token.ADD:
			return ev.provenNonNeg(x.X, b, depth+1) && ev.provenNonNeg(x.Y, b, depth+1)
		}
	case *ast.CallExpr:
		if name, arg := mathUnaryCall(ev.info(), x); arg != nil {
			switch name {
			case "Abs":
				return true
			case "Sqrt":
				return ev.provenNonNeg(arg, b, depth+1)
			}
		}
		if ev.builtinExtremum(x, b, depth, factNonNeg) {
			return true
		}
		if ev.convIntFact(x, b, depth, factNonNeg) {
			return true
		}
		if ev.callFact(x, factNonNeg) {
			return true
		}
	}
	return ev.provenPositive(e, b, depth+1)
}

// builtinExtremum proves facts through max/min: max is >= each argument, so
// one positive argument makes it positive; min needs all arguments.
func (ev *evaluator) builtinExtremum(call *ast.CallExpr, b *cfgBlock, depth int, fact floatFact) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	bi, isB := ev.info().Uses[id].(*types.Builtin)
	if !isB || len(call.Args) == 0 {
		return false
	}
	prove := func(a ast.Expr) bool {
		switch fact {
		case factPositive:
			return ev.provenPositive(a, b, depth+1)
		case factNonNeg:
			return ev.provenNonNeg(a, b, depth+1)
		case factNonzero:
			// Through max/min only sign facts survive (a nonzero argument of
			// either sign proves nothing about the extremum).
			return ev.provenPositive(a, b, depth+1)
		}
		return false
	}
	switch bi.Name() {
	case "max":
		for _, a := range call.Args {
			if prove(a) {
				return true
			}
		}
	case "min":
		for _, a := range call.Args {
			if !prove(a) {
				return false
			}
		}
		return true
	}
	return false
}

// convIntFact proves a float fact about a float(intExpr) conversion by
// dropping into the integer interval engine: float64(max(n, 1)) is proven
// positive because the argument's interval has lo >= 1.
func (ev *evaluator) convIntFact(call *ast.CallExpr, b *cfgBlock, depth int, fact floatFact) bool {
	tv, ok := ev.info().Types[call.Fun]
	if !ok || !tv.IsType() || len(call.Args) != 1 {
		return false
	}
	at, ok := ev.info().Types[call.Args[0]]
	if !ok || at.Type == nil {
		return false
	}
	bt, ok := at.Type.Underlying().(*types.Basic)
	if !ok || bt.Info()&types.IsInteger == 0 {
		return false
	}
	iv, pend := ev.exprInterval(call.Args[0], b, depth+1)
	if pend {
		return false
	}
	switch fact {
	case factPositive:
		return boundGE(iv.lo, constBound(1))
	case factNonNeg:
		return loGEZero(iv.lo)
	case factNonzero:
		if boundGE(iv.lo, constBound(1)) {
			return true
		}
		return !iv.hi.inf && iv.hi.lenOf == nil && iv.hi.c <= -1
	}
	return false
}

// callFact consults the interprocedural return-fact table for a call with a
// single result.
func (ev *evaluator) callFact(call *ast.CallExpr, fact floatFact) bool {
	if ev.va == nil {
		return false
	}
	fn := funcObjOf(ev.info(), call.Fun)
	if fn == nil {
		return false
	}
	rf := ev.va.ret[fn]
	if rf == nil || len(rf.results) != 1 {
		return false
	}
	switch fact {
	case factNonzero:
		return rf.results[0].nonzero || rf.results[0].positive
	case factPositive:
		return rf.results[0].positive
	case factNonNeg:
		return rf.results[0].nonneg || rf.results[0].positive
	}
	return false
}

// mathUnaryCall recognizes math.F(x) for a single-argument F, returning the
// function name and argument.
func mathUnaryCall(info *types.Info, call *ast.CallExpr) (string, ast.Expr) {
	fn := funcObjOf(info, call.Fun)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "math" || len(call.Args) != 1 {
		return "", nil
	}
	return fn.Name(), call.Args[0]
}

// provenFactValue proves a float fact about value v as observed in block b:
// from a dominating guard, from the defining expression, or (for phis) from
// every incoming operand.
func (ev *evaluator) provenFactValue(v *ssaValue, fact floatFact, b *cfgBlock, depth int) bool {
	if depth > evalDepthLimit {
		return false
	}
	key := floatFactKey{v: v, fact: fact, block: b}
	if r, ok := ev.factMemo[key]; ok {
		return r
	}
	if ev.factBusy[key] {
		return false // cycle: unproven
	}
	ev.factBusy[key] = true
	r := ev.computeFactValue(v, fact, b, depth)
	delete(ev.factBusy, key)
	ev.factMemo[key] = r
	return r
}

func (ev *evaluator) computeFactValue(v *ssaValue, fact floatFact, b *cfgBlock, depth int) bool {
	// Dominating guards about this exact version.
	for _, e := range ev.dominatingConds(b) {
		if ev.guardProvesFact(e.cond, e.isTrue, v, fact, e.from, depth) {
			return true
		}
	}
	// Definition-site proofs.
	switch v.kind {
	case ssaDef:
		if v.rhs != nil {
			switch fact {
			case factNonzero:
				return ev.provenNonzero(v.rhs, v.block, depth+1)
			case factPositive:
				return ev.provenPositive(v.rhs, v.block, depth+1)
			case factNonNeg:
				return ev.provenNonNeg(v.rhs, v.block, depth+1)
			}
		}
	case ssaPhi:
		preds := ev.f.preds[v.block]
		if len(v.phiArgs) == 0 {
			return false
		}
		for i, op := range v.phiArgs {
			if op == nil || i >= len(preds) {
				return false
			}
			p := preds[i]
			ok := ev.provenFactValue(op, fact, p, depth+1)
			if !ok {
				if cond, isTrue, edgeOK := branchCond(p, v.block); edgeOK {
					ok = ev.guardProvesFact(cond, isTrue, op, fact, p, depth)
				}
			}
			if !ok {
				return false
			}
		}
		return true
	}
	return false
}

// guardProvesFact decides whether one branch condition, known to evaluate
// to isTrue, proves the fact about value v. This is the guard-recognition
// seam: exact-compare helpers (ExactZero/isZero/ExactEqual/approxEq — the
// floatcmp allowlist), math.Abs thresholds, and sign comparisons.
func (ev *evaluator) guardProvesFact(cond ast.Expr, isTrue bool, v *ssaValue, fact floatFact, condBlock *cfgBlock, depth int) bool {
	if depth > evalDepthLimit {
		return false
	}
	cond = ast.Unparen(cond)
	switch c := cond.(type) {
	case *ast.UnaryExpr:
		if c.Op == token.NOT {
			return ev.guardProvesFact(c.X, !isTrue, v, fact, condBlock, depth+1)
		}
	case *ast.BinaryExpr:
		switch c.Op {
		case token.LAND:
			if isTrue {
				return ev.guardProvesFact(c.X, true, v, fact, condBlock, depth+1) ||
					ev.guardProvesFact(c.Y, true, v, fact, condBlock, depth+1)
			}
			return false
		case token.LOR:
			if !isTrue {
				return ev.guardProvesFact(c.X, false, v, fact, condBlock, depth+1) ||
					ev.guardProvesFact(c.Y, false, v, fact, condBlock, depth+1)
			}
			return false
		case token.LSS, token.LEQ, token.GTR, token.GEQ:
			return ev.cmpGuardProves(c, isTrue, v, fact, condBlock, depth)
		}
	case *ast.CallExpr:
		// A designated exact-compare helper on its false edge: ExactZero(x)
		// false means x != 0 exactly; approxEq(x, 0) false means |x| exceeds
		// a nonnegative tolerance, which also proves nonzero.
		if fact != factNonzero || isTrue {
			return false
		}
		name := calleeBaseName(ev.info(), c)
		if name == "" || !ev.va.helpers[name] {
			return false
		}
		zeroArgs := 0
		var target ast.Expr
		for _, a := range c.Args {
			if s, ok := ev.constFloatSign(a); ok && s == 0 {
				zeroArgs++
				continue
			}
			if target == nil {
				target = a
			} else {
				return false // two non-constant args: not a zero test
			}
		}
		if target == nil {
			return false
		}
		if len(c.Args) > 1 && zeroArgs != len(c.Args)-1 {
			return false
		}
		if id, ok := ast.Unparen(target).(*ast.Ident); ok {
			return ev.f.useOf[id] == v
		}
	}
	return false
}

// calleeBaseName renders the called function's bare name for the helper
// allowlist (floats.ExactZero and s.isZero both match by final name).
func calleeBaseName(info *types.Info, call *ast.CallExpr) string {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	}
	return ""
}

// denotesValue reports whether e is exactly the version v, or math.Abs of
// it.
func (ev *evaluator) denotesValue(e ast.Expr, v *ssaValue) (isAbs, ok bool) {
	e = ast.Unparen(e)
	if call, isCall := e.(*ast.CallExpr); isCall {
		if name, arg := mathUnaryCall(ev.info(), call); name == "Abs" {
			if id, isID := ast.Unparen(arg).(*ast.Ident); isID && ev.f.useOf[id] == v {
				return true, true
			}
		}
		return false, false
	}
	if id, isID := e.(*ast.Ident); isID && ev.f.useOf[id] == v {
		return false, true
	}
	return false, false
}

// cmpGuardProves handles sign and math.Abs-threshold comparison guards.
// The bound side need not be a constant: its sign is itself proven through
// the fact engine, so `step > piv` with piv = max(tol, 1e-30) proves step
// positive. condBlock is where the comparison evaluates.
func (ev *evaluator) cmpGuardProves(c *ast.BinaryExpr, isTrue bool, v *ssaValue, fact floatFact, condBlock *cfgBlock, depth int) bool {
	op := c.Op
	if !isTrue {
		op = negateCmp(op)
	}
	lhs, rhs := c.X, c.Y
	// Orient so v (or math.Abs(v)) sits on the left.
	isAbs, ok := ev.denotesValue(lhs, v)
	if !ok {
		isAbs, ok = ev.denotesValue(rhs, v)
		if !ok {
			return false
		}
		lhs, rhs = rhs, lhs
		op = swapCmp(op)
	}
	_ = lhs

	// Bound-side sign facts. Constants resolve inside the provers.
	rhsPos := ev.provenPositive(rhs, condBlock, depth+1)
	rhsNonneg := rhsPos || ev.provenNonNeg(rhs, condBlock, depth+1)
	var rhsNonpos, rhsNeg bool
	if s, okS := ev.constFloatSign(rhs); okS {
		rhsNonpos, rhsNeg = s <= 0, s < 0
	} else if u, okU := ast.Unparen(rhs).(*ast.UnaryExpr); okU && u.Op == token.SUB {
		// v < -e with e >= 0 pins v strictly negative.
		rhsNeg = ev.provenPositive(u.X, condBlock, depth+1)
		rhsNonpos = rhsNeg || ev.provenNonNeg(u.X, condBlock, depth+1)
	}

	if isAbs {
		// |v| > c (c >= 0) or |v| >= c (c > 0) prove nonzero; |v| bounds say
		// nothing about v's sign.
		return fact == factNonzero &&
			((op == token.GTR && rhsNonneg) || (op == token.GEQ && rhsPos))
	}
	switch fact {
	case factPositive:
		return (op == token.GTR && rhsNonneg) || (op == token.GEQ && rhsPos)
	case factNonNeg:
		return (op == token.GTR || op == token.GEQ) && rhsNonneg
	case factNonzero:
		// Either strictly positive or strictly negative.
		if (op == token.GTR && rhsNonneg) || (op == token.GEQ && rhsPos) {
			return true
		}
		return (op == token.LSS && rhsNonpos) || (op == token.LEQ && rhsNeg)
	}
	return false
}
