package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// ErrClass enforces the error-classification discipline the service
// boundary depends on: the differential harness and the service's corpus
// replay over HTTP key on stable error classes, and a class survives the
// trip from the engine to the HTTP response only if (a) sentinel errors
// stay recognizable to errors.Is and (b) every handler error flows through
// the package's classifier rather than ad-hoc HTTP error writing.
//
// Rules:
//
//  1. Sentinel errors (package-level `var Err.../err...` of type error)
//     must be compared with errors.Is, never == or != — wrapped errors
//     (fmt.Errorf %w, the executor's cancellation chain) fail pointer
//     comparison silently.
//  2. fmt.Errorf with an error-typed argument must use %w: a %v/%s wrap
//     mints a new error class and the boundary classifier stops matching.
//  3. HTTP handler functions (w http.ResponseWriter, r *http.Request) must
//     not call http.Error or write 4xx/5xx statuses directly — errors
//     route through the package's classifier (writeError/writeJSON).
var ErrClass = &Analyzer{
	Name: "errclass",
	Doc: "boundary errors keep their class: errors.Is for sentinels, %w for wraps, " +
		"the classifier for handler errors",
	Run: runErrClass,
}

func runErrClass(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				checkSentinelCompare(pass, n)
			case *ast.CallExpr:
				checkErrorfWrap(pass, n)
			case *ast.FuncDecl:
				if isHTTPHandler(pass, n) {
					checkHandlerErrors(pass, n)
				}
			}
			return true
		})
	}
	return nil
}

// checkSentinelCompare flags `err == ErrFoo` / `err != ErrFoo`.
func checkSentinelCompare(pass *Pass, b *ast.BinaryExpr) {
	if b.Op != token.EQL && b.Op != token.NEQ {
		return
	}
	if name, ok := sentinelName(pass, b.X); ok {
		pass.Reportf(b.Pos(), "sentinel error %s compared with %s; use errors.Is (wrapped errors fail pointer comparison)", name, b.Op)
		return
	}
	if name, ok := sentinelName(pass, b.Y); ok {
		pass.Reportf(b.Pos(), "sentinel error %s compared with %s; use errors.Is (wrapped errors fail pointer comparison)", name, b.Op)
	}
}

// sentinelName reports whether e is a package-level error variable named
// like a sentinel (Err*/err*).
func sentinelName(pass *Pass, e ast.Expr) (string, bool) {
	var id *ast.Ident
	switch x := e.(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		id = x.Sel
	default:
		return "", false
	}
	v, ok := pass.Info.Uses[id].(*types.Var)
	if !ok || v.Pkg() == nil {
		return "", false
	}
	// Package level: the variable's parent scope is its package scope.
	if v.Parent() != v.Pkg().Scope() {
		return "", false
	}
	if !strings.HasPrefix(v.Name(), "Err") && !strings.HasPrefix(v.Name(), "err") {
		return "", false
	}
	if !implementsError(v.Type()) {
		return "", false
	}
	return v.Name(), true
}

// checkErrorfWrap flags fmt.Errorf calls that take an error argument but
// whose (constant) format string has no %w verb.
func checkErrorfWrap(pass *Pass, call *ast.CallExpr) {
	if !isPkgFunc(pass.Info, call, "fmt", "Errorf") || len(call.Args) < 2 {
		return
	}
	tv, ok := pass.Info.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return
	}
	format := constant.StringVal(tv.Value)
	if strings.Contains(format, "%w") {
		return
	}
	for _, arg := range call.Args[1:] {
		if t := pass.Info.Types[arg].Type; t != nil && implementsError(t) {
			pass.Reportf(call.Pos(), "fmt.Errorf wraps an error without %%w: the error class is lost to errors.Is at the service boundary")
			return
		}
	}
}

// implementsError reports whether t implements the error interface.
func implementsError(t types.Type) bool {
	if t == nil {
		return false
	}
	errType := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	return types.Implements(t, errType) || types.Implements(types.NewPointer(t), errType)
}

// isHTTPHandler reports whether fd has an (http.ResponseWriter,
// *http.Request) parameter pair — the handler shape.
func isHTTPHandler(pass *Pass, fd *ast.FuncDecl) bool {
	obj, ok := pass.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	sig := obj.Type().(*types.Signature)
	params := sig.Params()
	if params.Len() != 2 {
		return false
	}
	return isNamedType(params.At(0).Type(), "net/http", "ResponseWriter") &&
		isPtrToNamedType(params.At(1).Type(), "net/http", "Request")
}

// checkHandlerErrors flags ad-hoc error writing inside a handler.
func checkHandlerErrors(pass *Pass, fd *ast.FuncDecl) {
	if fd.Body == nil {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isPkgFunc(pass.Info, call, "net/http", "Error") {
			pass.Reportf(call.Pos(), "handler writes an error with http.Error; route it through the package's error classifier instead")
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "WriteHeader" && len(call.Args) == 1 {
			if recvT := pass.Info.Types[sel.X].Type; recvT != nil && isNamedType(recvT, "net/http", "ResponseWriter") {
				if tv, ok := pass.Info.Types[call.Args[0]]; ok && tv.Value != nil && tv.Value.Kind() == constant.Int {
					if v, ok := constant.Int64Val(tv.Value); ok && v >= 400 {
						pass.Reportf(call.Pos(), "handler writes status %d directly; route errors through the package's error classifier instead", v)
					}
				}
			}
		}
		return true
	})
}

func isNamedType(t types.Type, pkgPath, name string) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

func isPtrToNamedType(t types.Type, pkgPath, name string) bool {
	ptr, ok := t.Underlying().(*types.Pointer)
	if !ok {
		return false
	}
	return isNamedType(ptr.Elem(), pkgPath, name)
}
