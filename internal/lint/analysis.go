package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
)

// An Analyzer checks one invariant over a type-checked package. The shape
// mirrors golang.org/x/tools/go/analysis so the suite can migrate to the
// real framework wholesale if the dependency ever becomes available.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //permlint:ignore comments.
	Name string
	// Doc is the one-paragraph description the multichecker prints.
	Doc string
	// Run reports the analyzer's findings for one package via pass.
	Run func(pass *Pass) error
}

// A Diagnostic is one finding.
type Diagnostic struct {
	// Analyzer is the reporting analyzer's name.
	Analyzer string
	// Pos locates the finding.
	Pos token.Position
	// Message describes the violated invariant.
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// A Pass carries one (analyzer, package) run: the package under analysis
// plus the report sink. Suppressed positions (//permlint:ignore) are
// filtered here so analyzers never deal with them.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	diags   *[]Diagnostic
	ignores map[ignoreKey]bool
}

// ignoreKey identifies one suppressed (file, line, analyzer) cell; analyzer
// "" suppresses every analyzer on the line.
type ignoreKey struct {
	file     string
	line     int
	analyzer string
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.suppressed(position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
	})
}

// suppressed reports whether a //permlint:ignore comment covers the
// position: on the same line (trailing comment) or on the line above.
func (p *Pass) suppressed(pos token.Position) bool {
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, name := range []string{p.Analyzer.Name, ""} {
			if p.ignores[ignoreKey{file: pos.Filename, line: line, analyzer: name}] {
				return true
			}
		}
	}
	return false
}

// ignoreRE matches "permlint:ignore [analyzer [reason]]" in a comment.
var ignoreRE = regexp.MustCompile(`^//\s*permlint:ignore(?:\s+([a-z]+))?`)

// buildIgnores scans every comment of the package for suppressions.
func buildIgnores(pkg *Package) map[ignoreKey]bool {
	out := map[ignoreKey]bool{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				out[ignoreKey{file: pos.Filename, line: pos.Line, analyzer: m[1]}] = true
			}
		}
	}
	return out
}

// RunAnalyzers applies the analyzers to each package and returns the
// findings sorted by position. Standard-library packages in pkgs are
// skipped: they are loaded only as type-checking context.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	ignores := map[*Package]map[ignoreKey]bool{}
	for _, pkg := range pkgs {
		if !pkg.Standard {
			ignores[pkg] = buildIgnores(pkg)
		}
	}
	for _, a := range analyzers {
		for _, pkg := range pkgs {
			if pkg.Standard {
				continue
			}
			pass := &Pass{
				Analyzer: a,
				Pkg:      pkg,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Types:    pkg.Types,
				Info:     pkg.Info,
				diags:    &diags,
				ignores:  ignores[pkg],
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.PkgPath, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// Analyzers returns the full suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{CtxFlow, ErrClass, DeferClose}
}

// AnalyzerByName resolves one analyzer.
func AnalyzerByName(name string) (*Analyzer, bool) {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a, true
		}
	}
	return nil, false
}

// --- shared AST helpers ---

// inspectWithStack walks the node like ast.Inspect but hands the visitor
// the current ancestor stack (excluding n itself).
func inspectWithStack(root ast.Node, visit func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		keep := visit(n, stack)
		if keep {
			stack = append(stack, n)
		}
		return keep
	})
}

// isPkgFunc reports whether the call invokes the named function of the
// named package (e.g. "context", "Background"), resolving through the
// type-checker so aliases and shadowing don't fool it.
func isPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return obj.Pkg().Path() == pkgPath && obj.Name() == name
}
