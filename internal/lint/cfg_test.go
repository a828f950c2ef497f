package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// parseBody parses `func f() { <src> }` and returns the body.
func parseBody(t *testing.T, src string) *ast.BlockStmt {
	t.Helper()
	file, err := parser.ParseFile(token.NewFileSet(), "cfg_test.go", "package p\nfunc f() {\n"+src+"\n}", 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return file.Decls[0].(*ast.FuncDecl).Body
}

// TestCFGPanicExit: a panic-only path reaches Exit but is marked PanicExit,
// so balance checks can exempt it.
func TestCFGPanicExit(t *testing.T) {
	isPanic := func(call *ast.CallExpr) bool {
		id, ok := call.Fun.(*ast.Ident)
		return ok && id.Name == "panic"
	}
	cfg := BuildCFG(parseBody(t, `if true { panic("boom") }; return`), isPanic)
	// Only entry-reachable blocks matter: terminators leave behind empty
	// unreachable continuation blocks that analyzers skip via solver facts.
	reachable := map[*Block]bool{cfg.Entry: true}
	work := []*Block{cfg.Entry}
	for len(work) > 0 {
		blk := work[len(work)-1]
		work = work[:len(work)-1]
		for _, s := range blk.Succs {
			if !reachable[s] {
				reachable[s] = true
				work = append(work, s)
			}
		}
	}
	var panicBlocks, plainExits int
	for _, b := range cfg.Blocks {
		if !reachable[b] {
			continue
		}
		for _, s := range b.Succs {
			if s != cfg.Exit {
				continue
			}
			if b.PanicExit {
				panicBlocks++
			} else {
				plainExits++
			}
		}
	}
	if panicBlocks != 1 || plainExits != 1 {
		t.Errorf("got %d panic exits and %d plain exits, want 1 and 1", panicBlocks, plainExits)
	}
}

func TestCFGDefersRecorded(t *testing.T) {
	cfg := BuildCFG(parseBody(t, `defer f(); if true { defer g() }`), nil)
	if len(cfg.Defers) != 2 {
		t.Errorf("recorded %d defers, want 2", len(cfg.Defers))
	}
}

// TestFlowSolver runs the generic solver with a simple may-reach fact: the
// set of string markers assigned on some path (calls mark(x) join as union).
func TestFlowSolver(t *testing.T) {
	body := parseBody(t, `
	mark("a")
	if cond {
		mark("b")
	} else {
		mark("c")
	}
	mark("d")
`)
	cfg := BuildCFG(body, nil)
	type fact = map[string]bool
	flow := &Flow[fact]{
		CFG:  cfg,
		Init: fact{},
		Transfer: func(n ast.Node, f fact) fact {
			out := make(fact, len(f))
			for k := range f {
				out[k] = true
			}
			ast.Inspect(n, func(x ast.Node) bool {
				call, ok := x.(*ast.CallExpr)
				if !ok {
					return true
				}
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "mark" {
					if lit, ok := call.Args[0].(*ast.BasicLit); ok {
						out[lit.Value] = true
					}
				}
				return true
			})
			return out
		},
		Join: func(a, b fact) fact {
			out := make(fact, len(a)+len(b))
			for k := range a {
				out[k] = true
			}
			for k := range b {
				out[k] = true
			}
			return out
		},
		Equal: func(a, b fact) bool {
			if len(a) != len(b) {
				return false
			}
			for k := range a {
				if !b[k] {
					return false
				}
			}
			return true
		},
	}
	in := flow.Solve()

	// The block holding mark("d") must see a, and both b and c (joined),
	// before its own transfer.
	var dEntry fact
	for b, f := range in {
		for _, n := range b.Nodes {
			found := false
			ast.Inspect(n, func(x ast.Node) bool {
				if lit, ok := x.(*ast.BasicLit); ok && lit.Value == `"d"` {
					found = true
				}
				return true
			})
			if found {
				dEntry = f
			}
		}
	}
	if dEntry == nil {
		t.Fatalf("block containing mark(\"d\") not solved")
	}
	for _, want := range []string{`"a"`, `"b"`, `"c"`} {
		if !dEntry[want] {
			t.Errorf("entry fact at mark(\"d\") missing %s: %v", want, dEntry)
		}
	}
}
