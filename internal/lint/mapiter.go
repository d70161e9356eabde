package lint

// mapiter: Go randomizes map iteration order on purpose, so a loop that
// ranges over a map and accumulates results into state that outlives the
// loop — appending to a slice declared outside it, or sending into a
// channel — produces a different order every run. In the solver packages
// (solveScope) that is a determinism bug unless the accumulated result is
// canonicalized by a sort after the loop: the classic pattern
//
//	for k := range m { keys = append(keys, k) }
//	sort.Ints(keys)
//
// is fine; the same loop without the sort leaks map order into solve
// results. Sends into channels cannot be repaired after the fact and are
// always flagged. So is a float compound assignment (+=, -=, *=, /=) into
// storage that outlives the loop: float arithmetic is not associative, so the
// visit order reaches the low bits of the sum and no later sort takes it back
// out (integer sums are order-independent and stay silent).

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

func runMapiter(pkg *Package, report reportFunc) {
	if !slices.Contains(solveScope, pkg.Path) {
		return
	}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkMapRanges(pkg, fd.Body, report)
		}
	}
}

func checkMapRanges(pkg *Package, body *ast.BlockStmt, report reportFunc) {
	info := pkg.Info
	// ancestors[n] is the chain of nodes from body down to n's parent.
	var stack []ast.Node
	parents := map[ast.Node][]ast.Node{}
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		parents[n] = append([]ast.Node(nil), stack...)
		stack = append(stack, n)
		return true
	})

	ast.Inspect(body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := info.Types[rs.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}

		reported := map[types.Object]bool{}
		ast.Inspect(rs.Body, func(inner ast.Node) bool {
			switch st := inner.(type) {
			case *ast.SendStmt:
				report(st.Pos(), "send into a channel while ranging over a map publishes values in nondeterministic order")
			case *ast.AssignStmt:
				switch st.Tok {
				case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
					if t := info.TypeOf(st.Lhs[0]); t != nil && isFloat(t) && outlivesLoop(info, st.Lhs[0], rs) {
						report(st.Pos(), "float %s while ranging over a map accumulates in nondeterministic order (float arithmetic is not associative); range over sorted keys", st.Tok)
					}
				}
				for i, rhs := range st.Rhs {
					call, ok := ast.Unparen(rhs).(*ast.CallExpr)
					if !ok || !isBuiltinAppend(info, call) || i >= len(st.Lhs) {
						continue
					}
					target := st.Lhs[i]
					obj := rootObject(info, target)
					if obj != nil {
						if reported[obj] {
							continue
						}
						// Only targets that outlive the loop leak map order.
						if withinRange(obj.Pos(), rs) {
							continue
						}
					}
					if sortFollows(info, parents, rs, obj) {
						continue
					}
					if obj != nil {
						reported[obj] = true
						report(st.Pos(), "append to %q while ranging over a map leaks nondeterministic order; sort it after the loop", obj.Name())
					} else {
						report(st.Pos(), "append while ranging over a map leaks nondeterministic order; sort the result after the loop")
					}
				}
			}
			return true
		})
		return true
	})
}

// isBuiltinAppend reports whether call invokes the append builtin.
func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	obj := info.Uses[id]
	_, isBuiltin := obj.(*types.Builtin)
	return isBuiltin
}

// rootObject resolves the variable at the root of an assignable expression
// (x, x.f, x[i] all resolve to x). Nil when the root is not a plain
// identifier.
func rootObject(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return info.ObjectOf(x)
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// outlivesLoop reports whether the storage e writes to can outlive one
// iteration of rs: its root variable is declared outside the loop, or the
// path from a loop-local root goes through a pointer, slice or map, which
// may point at outer state (`l := perRes[id]; l.excess += over`).
func outlivesLoop(info *types.Info, e ast.Expr, rs *ast.RangeStmt) bool {
	for {
		var base ast.Expr
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			obj := info.ObjectOf(x)
			return obj == nil || !withinRange(obj.Pos(), rs)
		case *ast.SelectorExpr:
			base = x.X
		case *ast.IndexExpr:
			base = x.X
		default:
			return true
		}
		if t := info.TypeOf(base); t != nil {
			switch t.Underlying().(type) {
			case *types.Pointer, *types.Slice, *types.Map:
				return true
			}
		}
		e = base
	}
}

// withinRange reports whether pos falls inside the range statement.
func withinRange(pos token.Pos, rs *ast.RangeStmt) bool {
	return pos >= rs.Pos() && pos <= rs.End()
}

// sortFollows reports whether a sort call mentioning obj appears after the
// range statement, searching each enclosing block's trailing statements from
// the innermost outward (so `for ... {}` inside an if still sees a sort
// after the if).
func sortFollows(info *types.Info, parents map[ast.Node][]ast.Node, rs *ast.RangeStmt, obj types.Object) bool {
	chain := append(append([]ast.Node(nil), parents[rs]...), rs)
	for depth := len(chain) - 2; depth >= 0; depth-- {
		block, ok := chain[depth].(*ast.BlockStmt)
		if !ok {
			continue
		}
		child := chain[depth+1]
		idx := -1
		for i, st := range block.List {
			if st == child {
				idx = i
				break
			}
		}
		if idx < 0 {
			continue
		}
		for _, st := range block.List[idx+1:] {
			if containsSortOf(info, st, obj) {
				return true
			}
		}
	}
	return false
}

// containsSortOf reports whether the subtree under n contains a sorting call
// that mentions obj (any sorting call when obj is nil).
func containsSortOf(info *types.Info, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok || !isSortCall(info, call) {
			return true
		}
		if obj == nil {
			found = true
			return false
		}
		ast.Inspect(call, func(a ast.Node) bool {
			if id, ok := a.(*ast.Ident); ok && info.ObjectOf(id) == obj {
				found = true
				return false
			}
			return !found
		})
		return !found
	})
	return found
}

// isSortCall reports whether call invokes something that sorts: any function
// of package sort or slices, or any function whose name mentions sorting.
func isSortCall(info *types.Info, call *ast.CallExpr) bool {
	if obj := funcObjOf(info, call.Fun); obj != nil {
		if pkg := obj.Pkg(); pkg != nil && (pkg.Path() == "sort" || pkg.Path() == "slices") {
			return true
		}
		name := obj.Name()
		return name == "Sort" || len(name) > 4 && (name[:4] == "sort" || name[:4] == "Sort")
	}
	return false
}
