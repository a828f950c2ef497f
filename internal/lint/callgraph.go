package lint

import (
	"go/ast"
	"go/types"
	"sort"
)

// FuncInfo is one declared function or method of an analyzed package, with
// its statically resolvable callees.
type FuncInfo struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	// Callees are the *types.Func objects this function's body calls
	// through identifiers or selectors, deduplicated, in source order.
	// Calls through function-typed variables and interface methods resolve
	// to the declared object go/types reports (for an interface method
	// that is the interface's method object, not any concrete
	// implementation) — the documented approximation of this call graph.
	// Calls inside nested function literals are attributed to the
	// enclosing declaration: the literal's body is part of the work this
	// function may cause.
	Callees []*types.Func
}

// CallGraph is a whole-run static call-graph approximation over the
// analyzed (non-standard-library) packages.
type CallGraph struct {
	// Funcs maps each declared function object to its info.
	Funcs map[*types.Func]*FuncInfo
}

// buildCallGraph scans every analyzed package once.
func buildCallGraph(pkgs []*Package) *CallGraph {
	cg := &CallGraph{Funcs: map[*types.Func]*FuncInfo{}}
	for _, pkg := range pkgs {
		if pkg.Standard {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				info := &FuncInfo{Fn: obj, Decl: fd, Pkg: pkg}
				seen := map[*types.Func]bool{}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if callee := calleeOf(pkg.Info, call); callee != nil && !seen[callee] {
						seen[callee] = true
						info.Callees = append(info.Callees, callee)
					}
					return true
				})
				cg.Funcs[obj] = info
			}
		}
	}
	return cg
}

// calleeOf resolves a call expression to the called function object, or nil
// for builtins, conversions and calls through unnamed function values.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	if fn == nil {
		return nil
	}
	// A method of an instantiated generic type, or an instantiated generic
	// function, resolves to its declaration.
	return fn.Origin()
}

// SortedFuncs returns the graph's functions in stable source order, for
// deterministic whole-program reports.
func (cg *CallGraph) SortedFuncs() []*FuncInfo {
	out := make([]*FuncInfo, 0, len(cg.Funcs))
	for _, fi := range cg.Funcs {
		out = append(out, fi)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pkg.PkgPath != b.Pkg.PkgPath {
			return a.Pkg.PkgPath < b.Pkg.PkgPath
		}
		return a.Decl.Pos() < b.Decl.Pos()
	})
	return out
}

// RunCache is the state one RunAnalyzers invocation shares across all
// analyzers and packages: the call graph and the per-function CFGs are
// built once per run, not once per analyzer — together with the Loader's
// type-check cache this keeps a full run at one `go list` + one
// stdlib type-check + one CFG per function.
type RunCache struct {
	pkgs map[*Package]bool

	callGraph *CallGraph
	cfgs      map[ast.Node]*CFG

	// lockGraph memoizes the lockorder analyzer's whole-program
	// acquisition-order graph (built on first demand, reported per
	// package).
	lockGraph *lockOrderGraph
}

func newRunCache(pkgs []*Package) *RunCache {
	set := map[*Package]bool{}
	for _, p := range pkgs {
		set[p] = true
	}
	return &RunCache{pkgs: set, cfgs: map[ast.Node]*CFG{}}
}

// analyzedPackages returns the cache's non-stdlib packages in stable order.
func (c *RunCache) analyzedPackages() []*Package {
	out := make([]*Package, 0, len(c.pkgs))
	for p := range c.pkgs {
		if !p.Standard {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PkgPath < out[j].PkgPath })
	return out
}

// CallGraph returns the run's call graph, building it on first use.
func (c *RunCache) CallGraph() *CallGraph {
	if c.callGraph == nil {
		c.callGraph = buildCallGraph(c.analyzedPackages())
	}
	return c.callGraph
}

// terminatingFuncs names the stdlib functions treated as never returning
// when building CFGs (beyond the panic builtin).
var terminatingFuncs = map[string]map[string]bool{
	"os":      {"Exit": true},
	"runtime": {"Goexit": true},
	"log":     {"Fatal": true, "Fatalf": true, "Fatalln": true, "Panic": true, "Panicf": true, "Panicln": true},
}

// FuncCFG returns the memoized CFG of a function declaration or literal.
// fn must be *ast.FuncDecl or *ast.FuncLit with a non-nil body; info is the
// owning package's type info (used to spot terminating calls).
func (c *RunCache) FuncCFG(fn ast.Node, info *types.Info) *CFG {
	if g, ok := c.cfgs[fn]; ok {
		return g
	}
	var body *ast.BlockStmt
	switch fn := fn.(type) {
	case *ast.FuncDecl:
		body = fn.Body
	case *ast.FuncLit:
		body = fn.Body
	}
	g := BuildCFG(body, func(call *ast.CallExpr) bool {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		obj := info.Uses[sel.Sel]
		if obj == nil || obj.Pkg() == nil {
			return false
		}
		names := terminatingFuncs[obj.Pkg().Path()]
		return names != nil && names[obj.Name()]
	})
	c.cfgs[fn] = g
	return g
}
