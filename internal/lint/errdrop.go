package lint

// errdrop: a call whose error result is dropped on the floor in statement
// position (including go/defer statements) silently swallows failure.
// Assigning the error to the blank identifier (`_ = f()`) stays legal — the
// discard is then visible and greppable. Print-family functions of package
// fmt are exempt: their error returns (tty write failures) are convention-
// ally ignored, and flagging them would drown real findings.

import (
	"go/ast"
	"go/types"
)

// errdropExempt lists package-level functions whose error results may be
// ignored, as "pkgpath.Func".
var errdropExempt = map[string]bool{
	"fmt.Print": true, "fmt.Printf": true, "fmt.Println": true,
	"fmt.Fprint": true, "fmt.Fprintf": true, "fmt.Fprintln": true,
}

// errdropExemptRecv lists receiver types whose methods are documented to
// never return a non-nil error (strings.Builder: "no errors"; bytes.Buffer:
// write methods always return nil).
var errdropExemptRecv = map[string]bool{
	"strings.Builder": true,
	"bytes.Buffer":    true,
}

func runErrdrop(pkg *Package, report reportFunc) {
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var call *ast.CallExpr
			switch st := n.(type) {
			case *ast.ExprStmt:
				call, _ = st.X.(*ast.CallExpr)
			case *ast.GoStmt:
				call = st.Call
			case *ast.DeferStmt:
				call = st.Call
			}
			if call == nil {
				return true
			}
			sig := calleeSignature(pkg.Info, call)
			if sig == nil || !returnsError(sig) {
				return true
			}
			if obj := funcObjOf(pkg.Info, call.Fun); obj != nil && obj.Pkg() != nil {
				if errdropExempt[obj.Pkg().Path()+"."+obj.Name()] {
					return true
				}
				// The receiver comes from the method object's own signature:
				// the call expression's type is the receiver-less method value.
				if osig, ok := obj.Type().(*types.Signature); ok {
					if recv := osig.Recv(); recv != nil && errdropExemptRecv[namedTypeName(recv.Type())] {
						return true
					}
				}
			}
			report(call.Pos(), "%s returns an error that is discarded; handle it or assign it to _ explicitly", calleeName(call))
			return true
		})
	}
}

// namedTypeName renders a (possibly pointer-wrapped) named type as
// "pkgpath.Name", or "" for anything else.
func namedTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// returnsError reports whether any result of sig is an error.
func returnsError(sig *types.Signature) bool {
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if isErrorType(res.At(i).Type()) {
			return true
		}
	}
	return false
}
