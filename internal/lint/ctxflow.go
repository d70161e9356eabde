package lint

// ctxflow: cancellation only works if the context reaches every blocking
// callee. PR 1 threaded ctx through the whole solve stack (simplex pivots,
// branch-and-bound nodes, climb steps); this rule keeps it threaded. For any
// function that receives a context.Context parameter:
//
//  1. It must not call context.Background() or context.TODO(): minting a
//     fresh root context severs the caller's cancellation chain. (The one
//     idiomatic exception — defaulting a nil ctx at an API boundary —
//     carries a //raslint:allow ctxflow directive.)
//  2. Every call to a callee that accepts a context.Context must actually
//     pass one (the parameter itself or a context derived from it); calling
//     a ctx-aware callee without a context silently opts it out of
//     cancellation.

import (
	"go/ast"
	"go/types"
)

func runCtxflow(pkg *Package, report reportFunc) {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if !receivesContext(pkg.Info, fd) {
				continue
			}
			checkCtxBody(pkg, fd, report)
		}
	}
}

// receivesContext reports whether fd has a named context.Context parameter.
func receivesContext(info *types.Info, fd *ast.FuncDecl) bool {
	if fd.Type.Params == nil {
		return false
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if name.Name == "_" {
				continue
			}
			obj := info.Defs[name]
			if obj != nil && isContextType(obj.Type()) {
				return true
			}
		}
	}
	return false
}

func checkCtxBody(pkg *Package, fd *ast.FuncDecl, report reportFunc) {
	info := pkg.Info
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if obj := funcObjOf(info, call.Fun); obj != nil && obj.Pkg() != nil &&
			obj.Pkg().Path() == "context" && (obj.Name() == "Background" || obj.Name() == "TODO") {
			report(call.Pos(), "%s receives a ctx but calls context.%s, severing the cancellation chain", fd.Name.Name, obj.Name())
			return true
		}
		sig := calleeSignature(info, call)
		if sig == nil || !signatureWantsContext(sig) {
			return true
		}
		for _, arg := range call.Args {
			if tv, ok := info.Types[arg]; ok && isContextType(tv.Type) {
				return true // forwarded (possibly derived) context
			}
		}
		report(call.Pos(), "%s receives a ctx but calls %s without forwarding a context", fd.Name.Name, calleeName(call))
		return true
	})
}

// signatureWantsContext reports whether sig has a context.Context parameter.
func signatureWantsContext(sig *types.Signature) bool {
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// calleeName renders a human-readable name for a call target.
func calleeName(call *ast.CallExpr) string {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		if x, ok := f.X.(*ast.Ident); ok {
			return x.Name + "." + f.Sel.Name
		}
		return f.Sel.Name
	}
	return "callee"
}
