package lint

// leakcheck: goroutine-leak candidates in the solve stack. The paper's
// Async Solver re-optimizes continuously off the critical path and is
// cancelled and restarted routinely, so a worker that can only ever exit
// by completing an unguarded channel send or receive leaks the moment its
// peer stops listening — it pins its clone of the problem (hundreds of MB
// at region scale) for the life of the process.
//
// The rule, scoped to leakScope: for every `go` statement, if the launched
// function's body contains at least one blocking channel operation (send,
// receive, or range over a channel) and no escape hatch — no `select` with a
// `default` clause or a `<-ctx.Done()` case, and no direct receive from
// ctx.Done() — then every exit of that goroutine is an unguarded rendezvous
// and it is reported as a leak candidate.
//
// Known false positives/negatives, by design (see DESIGN.md): a buffered
// channel's first send never blocks but is still flagged (the capacity is
// a dynamic property); receives from time.After or other always-completing
// sources count as blocking; a goroutine that blocks on a WaitGroup or a
// bare cond.Wait instead of a channel is not flagged (no channel op).

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// leakScope is where leakcheck applies: the goroutine-spawning solve
// packages.
var leakScope = []string{
	"ras/internal/mip",
	"ras/internal/localsearch",
	"ras/internal/backend",
}

func runLeakcheck(pkg *Package, report reportFunc) {
	if !slices.Contains(leakScope, pkg.Path) {
		return
	}
	// Index the package's own function declarations so `go doWork()` can
	// be analyzed alongside `go func(){...}()`.
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					decls[fn] = fd
				}
			}
		}
	}
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			var body *ast.BlockStmt
			switch fun := ast.Unparen(gs.Call.Fun).(type) {
			case *ast.FuncLit:
				body = fun.Body
			default:
				if fn := funcObjOf(pkg.Info, gs.Call.Fun); fn != nil {
					if fd, ok := decls[fn]; ok {
						body = fd.Body
					}
				}
			}
			if body == nil {
				return true // cross-package or dynamic target: not analyzable
			}
			if pos, leaky := goroutineLeaks(pkg.Info, body); leaky {
				report(gs.Pos(), "goroutine's only exits are unguarded channel operations (first at %s); select on ctx.Done() or add a default",
					pkg.Fset.Position(pos))
			}
			return true
		})
	}
}

// goroutineLeaks scans one goroutine body. It reports the position of the
// first unguarded blocking channel operation, and whether the body has at
// least one such operation but no escape hatch.
func goroutineLeaks(info *types.Info, body *ast.BlockStmt) (token.Pos, bool) {
	var firstUnguarded token.Pos
	guarded := false

	// selectDepth tracks whether the walker is inside a select's comm
	// clauses, where sends/receives are the select's alternatives rather
	// than unconditional rendezvous.
	var walk func(n ast.Node, inSelect bool)
	walk = func(n ast.Node, inSelect bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch s := m.(type) {
			case *ast.FuncLit:
				// A nested literal runs only if called; a nested `go`
				// launches a goroutine of its own, checked at its own go
				// statement. Either way its ops are not this goroutine's.
				return false
			case *ast.SelectStmt:
				if selectHasEscape(info, s) {
					guarded = true
				}
				for _, cl := range s.Body.List {
					comm := cl.(*ast.CommClause)
					if comm.Comm != nil {
						walk(comm.Comm, true)
					}
					for _, st := range comm.Body {
						walk(st, false)
					}
				}
				return false
			case *ast.SendStmt:
				if !inSelect && firstUnguarded == token.NoPos {
					firstUnguarded = s.Pos()
				}
				return true
			case *ast.UnaryExpr:
				if s.Op == token.ARROW {
					if isCtxDoneChannel(info, s.X) {
						guarded = true
					} else if !inSelect && firstUnguarded == token.NoPos {
						firstUnguarded = s.Pos()
					}
				}
				return true
			case *ast.RangeStmt:
				if tv, ok := info.Types[s.X]; ok && tv.Type != nil {
					if _, isChan := tv.Type.Underlying().(*types.Chan); isChan && firstUnguarded == token.NoPos {
						firstUnguarded = s.Pos()
					}
				}
				return true
			}
			return true
		})
	}
	walk(body, false)
	return firstUnguarded, firstUnguarded != token.NoPos && !guarded
}

// selectHasEscape reports whether the select can always make progress or
// terminate on cancellation: a default clause, or a case receiving from a
// context's Done channel.
func selectHasEscape(info *types.Info, sel *ast.SelectStmt) bool {
	for _, cl := range sel.Body.List {
		comm := cl.(*ast.CommClause)
		if comm.Comm == nil {
			return true // default
		}
		var recv ast.Expr
		switch c := comm.Comm.(type) {
		case *ast.ExprStmt:
			recv = c.X
		case *ast.AssignStmt:
			if len(c.Rhs) == 1 {
				recv = c.Rhs[0]
			}
		}
		if ue, ok := ast.Unparen(recv).(*ast.UnaryExpr); ok && ue.Op == token.ARROW {
			if isCtxDoneChannel(info, ue.X) {
				return true
			}
		}
	}
	return false
}

// isCtxDoneChannel reports whether e is a call to the Done method of a
// context.Context (or of anything with a context-shaped Done).
func isCtxDoneChannel(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Done" {
		return false
	}
	if tv, ok := info.Types[sel.X]; ok && tv.Type != nil && isContextType(tv.Type) {
		return true
	}
	// Done() on a field or helper that returns <-chan struct{} is the
	// same escape hatch even off a non-Context receiver.
	if tv, ok := info.Types[e]; ok && tv.Type != nil {
		if ch, isChan := tv.Type.Underlying().(*types.Chan); isChan && ch.Dir() == types.RecvOnly {
			return true
		}
	}
	return false
}
