package lint

import (
	"go/ast"
	"go/types"
)

// Purity gates the engine's memoization sites: a function annotated
// `// perm:memoized` — the sublink probes whose verdicts are cached, the
// Register-time kind inference, any future plan-cache fill — must be
// read-only over its frozen inputs. Mutating its own receiver or run
// state (the memo maps themselves, counters) is fine; transitively
// mutating memory reachable from a frozen-typed parameter means the
// cached result was computed from inputs the computation itself changed,
// and every later cache hit returns a value no longer derivable from its
// key.
var Purity = &Analyzer{
	Name: "purity",
	Doc: "`// perm:memoized` functions must be read-only over their frozen " +
		"inputs (memoizing a frozen-input-mutating function poisons the cache)",
	Run: runPurity,
}

func runPurity(pass *Pass) error {
	idx := pass.Cache.StoreAlias()
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if _, memo := commentDirective(fd.Doc, "perm:memoized"); !memo {
				continue
			}
			fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			sum := idx.Sums[fn]
			if sum == nil {
				continue
			}
			params := paramVars(pass.Info, fd.Recv, fd.Type.Params)
			for i, p := range params {
				if p == nil || !frozenReachable(p.Type(), idx.Frozen) {
					continue
				}
				if _, bad := sum.MutFrozen[i]; !bad {
					continue
				}
				pass.Reportf(fd.Pos(),
					"memoized function %s mutates memory reachable from its frozen parameter %s (%s); its cached results cannot be reused",
					fn.Name(), p.Name(), p.Type())
			}
		}
	}
	return nil
}
