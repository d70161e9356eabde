package lint

// lockcheck: machine-checked lock discipline over the CFG. The parallel
// branch-and-bound engine (PR 2) made the solver a multi-goroutine worker
// pool; a mutex acquired and not released on one early-return path wedges
// every other worker the next time it blocks on the pool, and the race
// detector only notices when a test happens to drive that interleaving.
// Two checks:
//
//  1. Balance: a sync.Mutex/RWMutex acquired on some CFG path must be
//     released on every path out of the function, unless a matching
//     deferred unlock exists. The analysis is a forward may-held dataflow
//     over basic blocks: paths that reach the synthetic exit with a lock
//     still held (and no deferred release) are reported at the acquire.
//  2. Mode mismatches: a lock acquired with Lock must not be released with
//     RUnlock (and RLock not with Unlock) — silently legal-looking code
//     that corrupts the RWMutex reader count at runtime.
//
// Copies of lock-bearing values are go vet's copylocks check, which `make
// vet` runs ahead of this linter.
//
// Known false negatives, by construction (see DESIGN.md): deferred unlocks
// are collected flow-insensitively, so a conditional `defer mu.Unlock()`
// counts as always releasing; unlock-without-lock is not reported (helper
// methods legitimately release locks their caller acquired); locks reached
// through map indexing or function calls are not tracked (no canonical
// name). Function literals are analyzed as functions of their own.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// lockMode distinguishes write (Lock/Unlock) from read (RLock/RUnlock).
type lockMode byte

const (
	lockWrite lockMode = 'w'
	lockRead  lockMode = 'r'
)

func (m lockMode) acquire() string {
	if m == lockRead {
		return "RLock"
	}
	return "Lock"
}

func (m lockMode) release() string {
	if m == lockRead {
		return "RUnlock"
	}
	return "Unlock"
}

// lockState is the dataflow fact for one lock: the mode it is held in and
// the position of the acquire that put it there (for reporting).
type lockState struct {
	mode lockMode
	pos  token.Pos
}

// lockOp is one recognized mutex call in a statement.
type lockOp struct {
	key     string // canonical receiver path, "" when untrackable
	display string // source-ish receiver rendering for messages
	mode    lockMode
	acquire bool
	pos     token.Pos
}

func runLockcheck(pkg *Package, report reportFunc) {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			name := fd.Name.Name
			checkLockBalance(pkg, fd.Body, name, report)
			// Each function literal is its own scope for balance: a
			// closure that locks must also release.
			for _, lit := range funcLitsIn(fd.Body) {
				checkLockBalance(pkg, lit.Body, name+" literal", report)
			}
		}
	}
}

// funcLitsIn collects every function literal under n, including nested
// ones (each is returned once and analyzed against its own body).
func funcLitsIn(n ast.Node) []*ast.FuncLit {
	var lits []*ast.FuncLit
	ast.Inspect(n, func(m ast.Node) bool {
		if lit, ok := m.(*ast.FuncLit); ok {
			lits = append(lits, lit)
		}
		return true
	})
	return lits
}

// typesPanicResolver adapts *types.Info to the CFG builder's panic check.
type typesPanicResolver struct{ info *types.Info }

func (r typesPanicResolver) isPanic(call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	_, isBuiltin := r.info.Uses[id].(*types.Builtin)
	return isBuiltin && id.Name == "panic"
}

// checkLockBalance runs the may-held dataflow over one function body.
func checkLockBalance(pkg *Package, body *ast.BlockStmt, funcName string, report reportFunc) {
	info := pkg.Info
	g := buildCFG(body, typesPanicResolver{info})

	deferred := deferredUnlocks(info, body)

	// Forward fixpoint: in[b] = union of out[preds]; out[b] = transfer(b).
	in := make([]map[string]lockState, len(g.blocks))
	out := make([]map[string]lockState, len(g.blocks))
	preds := g.preds()
	changed := true
	for changed {
		changed = false
		for _, b := range g.blocks {
			ib := map[string]lockState{}
			for _, p := range preds[b] {
				mergeLocks(ib, out[p.index])
			}
			in[b.index] = ib
			ob := transferLocks(info, b, copyLocks(ib), nil)
			if !statesEqual(out[b.index], ob) {
				out[b.index] = ob
				changed = true
			}
		}
	}

	// Reachability from entry: dead blocks carry no meaningful state.
	reachable := map[*cfgBlock]bool{g.entry: true}
	stack := []*cfgBlock{g.entry}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range b.succs {
			if !reachable[s] {
				reachable[s] = true
				stack = append(stack, s)
			}
		}
	}

	// Final pass with stable in-states: report mode mismatches once.
	seen := map[string]bool{}
	mismatch := func(op lockOp, held lockState) {
		key := fmt.Sprintf("%d-%s", op.pos, op.display)
		if seen[key] {
			return
		}
		seen[key] = true
		report(op.pos, "%s.%s() releases a lock acquired with %s (mode mismatch corrupts the RWMutex state)",
			op.display, op.mode.release(), held.mode.acquire())
	}
	for _, b := range g.blocks {
		if !reachable[b] {
			continue
		}
		transferLocks(info, b, copyLocks(in[b.index]), mismatch)
	}

	// Exit check: anything still held at the synthetic exit without a
	// matching deferred release leaks out of the function.
	exitIn := map[string]lockState{}
	for _, p := range preds[g.exit] {
		if reachable[p] {
			mergeLocks(exitIn, out[p.index])
		}
	}
	for _, held := range sortedLockKeys(exitIn) {
		display, st := held.display, held.state
		if mode, ok := deferred[held.key]; ok {
			if mode != st.mode {
				report(st.pos, "%s.%s() is released by a deferred %s (mode mismatch corrupts the RWMutex state)",
					display, st.mode.acquire(), mode.release())
			}
			continue
		}
		report(st.pos, "%s.%s() is not released on every path out of %s; unlock on each return path or defer the %s",
			display, st.mode.acquire(), funcName, st.mode.release())
	}
}

// heldLock pairs a key with its state for deterministic exit reporting.
type heldLock struct {
	key     string
	display string
	state   lockState
}

// sortedLockKeys orders the exit-held set by acquire position so repeated
// runs report identically.
func sortedLockKeys(m map[string]lockState) []heldLock {
	out := make([]heldLock, 0, len(m))
	for k, st := range m {
		out = append(out, heldLock{key: k, display: displayOfKey(k), state: st})
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].state.pos < out[j-1].state.pos; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// lockKey canonicalizes the receiver expression of a mutex call into a
// stable key plus a display string: "e.incMu" keyed against the root
// object's identity so shadowed names stay distinct. Untrackable receivers
// (map entries, call results) return "".
func lockKey(info *types.Info, e ast.Expr) (key, display string) {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := info.ObjectOf(x)
		if obj == nil {
			return "", ""
		}
		return fmt.Sprintf("%d|%s", obj.Pos(), x.Name), x.Name
	case *ast.SelectorExpr:
		baseKey, baseDisp := lockKey(info, x.X)
		if baseKey == "" {
			return "", ""
		}
		return baseKey + "." + x.Sel.Name, baseDisp + "." + x.Sel.Name
	case *ast.StarExpr:
		return lockKey(info, x.X)
	}
	return "", ""
}

// displayOfKey strips the root-object position prefix from a lock key.
func displayOfKey(key string) string {
	for i := 0; i < len(key); i++ {
		if key[i] == '|' {
			return key[i+1:]
		}
	}
	return key
}

// mutexOpOf recognizes a call as a sync.Mutex/RWMutex Lock family method
// (including promoted embedded mutexes, which still resolve to the sync
// method object).
func mutexOpOf(info *types.Info, call *ast.CallExpr) (lockOp, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockOp{}, false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return lockOp{}, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return lockOp{}, false
	}
	recvName := ""
	rt := sig.Recv().Type()
	if p, isPtr := rt.(*types.Pointer); isPtr {
		rt = p.Elem()
	}
	if named, isNamed := rt.(*types.Named); isNamed {
		recvName = named.Obj().Name()
	}
	if recvName != "Mutex" && recvName != "RWMutex" {
		return lockOp{}, false
	}
	op := lockOp{pos: call.Pos()}
	switch fn.Name() {
	case "Lock":
		op.mode, op.acquire = lockWrite, true
	case "Unlock":
		op.mode, op.acquire = lockWrite, false
	case "RLock":
		op.mode, op.acquire = lockRead, true
	case "RUnlock":
		op.mode, op.acquire = lockRead, false
	default:
		return lockOp{}, false // TryLock etc.: may-acquire, untracked
	}
	op.key, op.display = lockKey(info, sel.X)
	return op, true
}

// transferLocks applies one block's statements to the held-lock state.
// onMismatch, when non-nil, receives mode-mismatched releases.
func transferLocks(info *types.Info, b *cfgBlock, state map[string]lockState, onMismatch func(lockOp, lockState)) map[string]lockState {
	for _, st := range b.stmts {
		shallowInspect(st, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			op, ok := mutexOpOf(info, call)
			if !ok || op.key == "" {
				return true
			}
			if op.acquire {
				state[op.key] = lockState{mode: op.mode, pos: op.pos}
				return true
			}
			if held, ok := state[op.key]; ok {
				if held.mode != op.mode && onMismatch != nil {
					onMismatch(op, held)
				}
				delete(state, op.key)
			}
			// Releasing a lock this function never acquired is a caller's
			// lock being handed back: legal, untracked.
			return true
		})
	}
	return state
}

// shallowInspect walks the parts of st that execute within its own basic
// block: compound statements contribute only their governing expressions
// (bodies live in other blocks), and function literal bodies are excluded
// (they run elsewhere, and are analyzed as functions of their own).
func shallowInspect(st ast.Stmt, f func(ast.Node) bool) {
	prune := func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		return f(n)
	}
	switch s := st.(type) {
	case *ast.IfStmt:
		ast.Inspect(s.Cond, prune)
	case *ast.ForStmt:
		if s.Cond != nil {
			ast.Inspect(s.Cond, prune)
		}
	case *ast.RangeStmt:
		ast.Inspect(s.X, prune)
	case *ast.SwitchStmt:
		if s.Tag != nil {
			ast.Inspect(s.Tag, prune)
		}
	case *ast.TypeSwitchStmt:
		ast.Inspect(s.Assign, prune)
	case *ast.SelectStmt:
		// Comm clauses are emitted into their own blocks.
	case *ast.DeferStmt:
		// Deferred effects are handled flow-insensitively; argument
		// evaluation cannot contain a mutex op worth tracking.
	default:
		ast.Inspect(st, prune)
	}
}

// deferredUnlocks collects the releases registered by defer statements
// anywhere in body: `defer mu.Unlock()` directly, or inside a deferred
// function literal. Flow-insensitive by design (conservative: a
// conditional defer counts as always releasing).
func deferredUnlocks(info *types.Info, body *ast.BlockStmt) map[string]lockMode {
	out := map[string]lockMode{}
	record := func(call *ast.CallExpr) {
		if op, ok := mutexOpOf(info, call); ok && !op.acquire && op.key != "" {
			out[op.key] = op.mode
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		// Defers inside nested function literals belong to the literal,
		// not to this function; the literal is analyzed on its own.
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		ds, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		record(ds.Call)
		if lit, ok := ast.Unparen(ds.Call.Fun).(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				if _, isLit := m.(*ast.FuncLit); isLit {
					return false
				}
				if call, ok := m.(*ast.CallExpr); ok {
					record(call)
				}
				return true
			})
		}
		return false // ds.Call's own subtree handled above
	})
	return out
}

func mergeLocks(dst, src map[string]lockState) {
	for k, v := range src {
		if _, ok := dst[k]; !ok {
			dst[k] = v
		}
	}
}

func copyLocks(src map[string]lockState) map[string]lockState {
	dst := make(map[string]lockState, len(src))
	for k, v := range src {
		dst[k] = v
	}
	return dst
}

func statesEqual(a, b map[string]lockState) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		w, ok := b[k]
		if !ok || v.mode != w.mode || v.pos != w.pos {
			return false
		}
	}
	return true
}
