package eval

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoRuntimeNameResolution keeps name resolution out of the executor:
// plans arrive bound (algebra.Bind), every reference a slot, so no non-test
// file of the package may call a schema's Lookup or IndexOf.
func TestNoRuntimeNameResolution(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	checked := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		checked++
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && (sel.Sel.Name == "Lookup" || sel.Sel.Name == "IndexOf") {
					t.Errorf("%s: %s resolves a name at run time; bind it in algebra.Bind", fset.Position(call.Pos()), sel.Sel.Name)
				}
			}
			return true
		})
	}
	if checked == 0 {
		t.Fatal("no source files found")
	}
}
