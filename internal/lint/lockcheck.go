package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// LockCheck enforces the engine's lock discipline flow-sensitively, on
// every control-flow path of every function (if/for/range/switch/select,
// early returns, defers):
//
//   - every read or write of a field annotated `// guarded-by: mu` must
//     happen at a program point where the guard is held on ALL paths
//     reaching it — a Lock/RLock earlier on the path without an
//     intervening Unlock/RUnlock, or a `// permlint:held mu` annotation
//     declaring the caller-holds convention;
//   - Lock/Unlock must balance on every path: a lock still (or maybe)
//     held when the function returns, an Unlock of a lock not held on the
//     path, and a write-Lock taken while already held (self-deadlock) are
//     findings. Deferred unlocks are credited on every exit path;
//     panic-terminated paths are exempt from balance (deferred releases
//     still run during unwinding).
//
// Function literals run at call time, not where they appear, so their
// bodies are analyzed as separate flow problems. A closure inherits the
// guards its enclosing function acquires anywhere (the pre-flow-sensitive
// rule): the engine's sink closures execute synchronously under the locks
// of their creator, and claiming more precision than the analysis has
// would misreport them.
var LockCheck = &Analyzer{
	Name: "lockcheck",
	Doc: "fields annotated `// guarded-by: mu` must only be accessed while the " +
		"guard is held on every path, and Lock/Unlock must balance on every path",
	Run: runLockCheck,
}

// guardInfo is one annotated field: the guard's field name within the same
// struct.
type guardInfo struct {
	guard string
}

// lock hold states, per acquisition kind. The lattice is
// notHeld < maybeHeld < held under join(x, x) = x, join(_, _) = maybeHeld.
const (
	notHeld   uint8 = 0
	maybeHeld uint8 = 1
	held      uint8 = 2
)

func joinHeld(a, b uint8) uint8 {
	if a == b {
		return a
	}
	return maybeHeld
}

// lockVal is the abstract state of one lock identity at a program point.
type lockVal struct {
	w, r uint8 // write / read hold state
	// wPos and rPos are representative acquisition sites for reporting.
	wPos, rPos token.Pos
	// initial marks holds inherited from the analysis context (a
	// permlint:held annotation or an enclosing closure's lexical locks):
	// exempt from balance checks, since this function did not acquire them.
	initial bool
}

func (v lockVal) zero() bool { return v.w == notHeld && v.r == notHeld && !v.initial }

// lockFact maps lock identities to hold states. Facts are treated as
// immutable; transfer clones before writing.
type lockFact map[lockID]lockVal

func (f lockFact) clone() lockFact {
	out := make(lockFact, len(f))
	for k, v := range f {
		out[k] = v
	}
	return out
}

func joinLockFacts(a, b lockFact) lockFact {
	out := make(lockFact, len(a))
	for k, av := range a {
		bv := b[k] // zero value = not held on the other path
		merged := lockVal{
			w:       joinHeld(av.w, bv.w),
			r:       joinHeld(av.r, bv.r),
			wPos:    av.wPos,
			rPos:    av.rPos,
			initial: av.initial || bv.initial,
		}
		if merged.wPos == token.NoPos {
			merged.wPos = bv.wPos
		}
		if merged.rPos == token.NoPos {
			merged.rPos = bv.rPos
		}
		if !merged.zero() {
			out[k] = merged
		}
	}
	for k, bv := range b {
		if _, ok := a[k]; ok {
			continue
		}
		merged := lockVal{w: joinHeld(notHeld, bv.w), r: joinHeld(notHeld, bv.r), wPos: bv.wPos, rPos: bv.rPos, initial: bv.initial}
		if !merged.zero() {
			out[k] = merged
		}
	}
	return out
}

func equalLockFacts(a, b lockFact) bool {
	if len(a) != len(b) {
		return false
	}
	for k, av := range a {
		bv, ok := b[k]
		if !ok || av.w != bv.w || av.r != bv.r || av.initial != bv.initial {
			return false
		}
	}
	return true
}

// applyLockOp is the per-call transfer function. report is nil during the
// fixpoint solve and non-nil during the final reporting pass.
func applyLockOp(fact lockFact, call *ast.CallExpr, id lockID, op lockOp, report func(pos token.Pos, format string, args ...any)) lockFact {
	out := fact.clone()
	v := out[id]
	switch op {
	case opLock:
		if report != nil && v.w == held && !v.initial {
			report(call.Pos(), "%s.Lock() while the write lock is already held (self-deadlock; acquired at %s)", id, "earlier on this path")
		}
		v.w, v.wPos, v.initial = held, call.Pos(), false
	case opRLock:
		v.r, v.rPos = held, call.Pos()
		v.initial = false
	case opUnlock:
		if report != nil && v.w == notHeld && v.r == notHeld && !v.initial {
			report(call.Pos(), "%s.Unlock() without holding the lock on this path", id)
		}
		v.w = notHeld
	case opRUnlock:
		if report != nil && v.w == notHeld && v.r == notHeld && !v.initial {
			report(call.Pos(), "%s.RUnlock() without holding the read lock on this path", id)
		}
		v.r = notHeld
	}
	if v.zero() {
		delete(out, id)
	} else {
		out[id] = v
	}
	return out
}

func runLockCheck(pass *Pass) error {
	guarded := collectGuardedFields(pass)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			lc := &lockChecker{
				pass:    pass,
				guarded: guarded,
				held:    heldGuards(fd),
				lexical: lexicalLocks(pass, fd),
				visited: map[*ast.FuncLit]bool{},
			}
			lc.checkFunc(fd, fd.Body, lc.initialFact(fd))
			// Closures the block walk did not reach (inside dead code)
			// still get the lexical-fallback analysis.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok && !lc.visited[lit] {
					lc.checkFunc(lit, lit.Body, lc.closureFact())
				}
				return true
			})
		}
	}
	return nil
}

type lockChecker struct {
	pass    *Pass
	guarded map[*types.Var]guardInfo
	// held is the guard-name set from the function's permlint:held
	// annotation.
	held map[string]bool
	// lexical is every lock identity the top-level function acquires
	// anywhere in its body, closures included — the closure fallback.
	lexical map[lockID]bool
	visited map[*ast.FuncLit]bool
}

// initialFact seeds a function's entry fact from its permlint:held
// annotation: a method annotated `held mu` starts with (recvType, mu) held.
func (lc *lockChecker) initialFact(fd *ast.FuncDecl) lockFact {
	fact := lockFact{}
	if len(lc.held) == 0 || fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fact
	}
	recvT := lc.pass.Info.Types[fd.Recv.List[0].Type].Type
	if recvT == nil {
		return fact
	}
	for g := range lc.held {
		fact[lockID{recv: derefNamed(recvT), guard: g}] = lockVal{w: held, initial: true}
	}
	return fact
}

// closureFact seeds a closure's entry fact with every lock its enclosing
// function acquires anywhere, as initial (balance-exempt) holds.
func (lc *lockChecker) closureFact() lockFact {
	fact := lockFact{}
	for id := range lc.lexical {
		fact[id] = lockVal{w: held, initial: true}
	}
	return fact
}

// checkFunc runs the flow problem over one function or closure body and
// reports violations.
func (lc *lockChecker) checkFunc(fn ast.Node, body *ast.BlockStmt, init lockFact) {
	pass := lc.pass
	cfg := pass.Cache.FuncCFG(fn, pass.Info)
	flow := &Flow[lockFact]{
		CFG:  cfg,
		Init: init,
		Transfer: func(n ast.Node, fact lockFact) lockFact {
			forEachLockCall(pass.Info, cfgEvalNode(n), func(call *ast.CallExpr, id lockID, op lockOp) {
				fact = applyLockOp(fact, call, id, op, nil)
			})
			return fact
		},
		Join:  joinLockFacts,
		Equal: equalLockFacts,
	}
	in := flow.Solve()

	// Reporting pass: replay each reached block from its solved entry
	// fact, checking guarded accesses and lock-op sanity in order.
	for _, blk := range cfg.Blocks {
		fact, reached := in[blk]
		if !reached {
			continue
		}
		for _, n := range blk.Nodes {
			fact = lc.walkNode(cfgEvalNode(n), fact)
		}
	}

	// Balance: join the facts on every ordinary (non-panic) path into
	// Exit, credit deferred releases, and report what is still held.
	var exit lockFact
	first := true
	for _, blk := range cfg.Blocks {
		fact, reached := in[blk]
		if !reached || blk.PanicExit {
			continue
		}
		toExit := false
		for _, s := range blk.Succs {
			if s == cfg.Exit {
				toExit = true
			}
		}
		if !toExit {
			continue
		}
		for _, n := range blk.Nodes {
			forEachLockCall(pass.Info, cfgEvalNode(n), func(call *ast.CallExpr, id lockID, op lockOp) {
				fact = applyLockOp(fact, call, id, op, nil)
			})
		}
		if first {
			exit, first = fact, false
		} else {
			exit = joinLockFacts(exit, fact)
		}
	}
	for _, d := range cfg.Defers {
		deferredLockCalls(pass.Info, d, func(call *ast.CallExpr, id lockID, op lockOp) {
			exit = applyLockOp(exit, call, id, op, nil)
		})
	}
	for id, v := range exit {
		if v.initial {
			continue
		}
		if v.w == held {
			pass.Reportf(v.wPos, "%s.Lock() is not released on any path to return: add a matching Unlock or defer", id)
		} else if v.w == maybeHeld {
			pass.Reportf(v.wPos, "%s.Lock() is not released on some path to return", id)
		}
		if v.r == held {
			pass.Reportf(v.rPos, "%s.RLock() is not released on any path to return: add a matching RUnlock or defer", id)
		} else if v.r == maybeHeld {
			pass.Reportf(v.rPos, "%s.RLock() is not released on some path to return", id)
		}
	}
}

// walkNode replays one statement: guarded-field accesses are checked
// against the current fact, lock calls update it, and nested function
// literals recurse as fresh flow problems.
func (lc *lockChecker) walkNode(n ast.Node, fact lockFact) lockFact {
	pass := lc.pass
	var stack []ast.Node
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if !lc.visited[n] {
				lc.visited[n] = true
				lc.checkFunc(n, n.Body, lc.closureFact())
			}
			return false
		case *ast.DeferStmt, *ast.GoStmt:
			// The call runs elsewhere; its closure (if any) is picked up
			// by the FuncLit case via the explicit walk below.
			if d, ok := n.(*ast.DeferStmt); ok {
				if lit, ok := d.Call.Fun.(*ast.FuncLit); ok {
					walkLit(lc, lit)
				}
			}
			if g, ok := n.(*ast.GoStmt); ok {
				if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
					walkLit(lc, lit)
				}
			}
			return false
		case *ast.CallExpr:
			if id, op, ok := classifyLockCall(pass.Info, n); ok {
				fact = applyLockOp(fact, n, id, op, pass.Reportf)
			}
		case *ast.SelectorExpr:
			lc.checkAccess(n, fact, stack)
		}
		return true
	}
	inspectWithStack(n, func(n ast.Node, st []ast.Node) bool {
		stack = st
		return walk(n)
	})
	return fact
}

func walkLit(lc *lockChecker, lit *ast.FuncLit) {
	if !lc.visited[lit] {
		lc.visited[lit] = true
		lc.checkFunc(lit, lit.Body, lc.closureFact())
	}
}

// checkAccess validates one guarded-field access against the current fact.
func (lc *lockChecker) checkAccess(sel *ast.SelectorExpr, fact lockFact, stack []ast.Node) {
	pass := lc.pass
	obj, ok := pass.Info.Uses[sel.Sel].(*types.Var)
	if !ok || !obj.IsField() {
		return
	}
	// A field of an instantiated generic struct is annotated on its declaration.
	info, ok := lc.guarded[obj.Origin()]
	if !ok {
		return
	}
	if lc.held[info.guard] {
		return
	}
	if insideCompositeLit(stack) {
		return
	}
	baseType := pass.Info.Types[sel.X].Type
	if baseType == nil {
		return
	}
	id := lockID{recv: derefNamed(baseType), guard: info.guard}
	v := fact[id]
	switch {
	case v.w == held || v.r == held:
		return
	case v.w == maybeHeld || v.r == maybeHeld:
		pass.Reportf(sel.Sel.Pos(), "access to %q (guarded-by: %s) holds %s on some paths only: hoist the Lock above the branch or annotate `// permlint:held %s`",
			obj.Name(), info.guard, info.guard, info.guard)
	default:
		pass.Reportf(sel.Sel.Pos(), "access to %q (guarded-by: %s) without holding %s: add %s.Lock()/RLock() or annotate the function `// permlint:held %s`",
			obj.Name(), info.guard, info.guard, info.guard, info.guard)
	}
}

// collectGuardedFields maps field objects to their guard annotations. The
// annotation may be the field's doc comment or its trailing line comment:
//
//	views map[string]*ViewDef // guarded-by: mu
func collectGuardedFields(pass *Pass) map[*types.Var]guardInfo {
	out := map[*types.Var]guardInfo{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				guard := ""
				if g, ok := commentDirective(field.Doc, "guarded-by"); ok {
					guard = g
				} else if g, ok := commentDirective(field.Comment, "guarded-by"); ok {
					guard = g
				}
				if guard == "" {
					continue
				}
				for _, name := range field.Names {
					if obj, ok := pass.Info.Defs[name].(*types.Var); ok {
						out[obj] = guardInfo{guard: guard}
					}
				}
			}
			return true
		})
	}
	return out
}

// heldGuards returns the guard names a function's doc comment declares as
// held by the caller (`// permlint:held mu`).
func heldGuards(fd *ast.FuncDecl) map[string]bool {
	out := map[string]bool{}
	if v, ok := commentDirective(fd.Doc, "permlint:held"); ok {
		for _, g := range strings.Fields(v) {
			out[g] = true
		}
	}
	return out
}

// lexicalLocks collects every lock identity acquired anywhere in the
// function body, closures and defers included — the flow-insensitive
// fallback closures inherit.
func lexicalLocks(pass *Pass, fd *ast.FuncDecl) map[lockID]bool {
	out := map[lockID]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, op, ok := classifyLockCall(pass.Info, call); ok && op.acquires() {
			out[id] = true
		}
		return true
	})
	return out
}

// insideCompositeLit reports whether the node stack passes through a
// composite literal (value initialization).
func insideCompositeLit(stack []ast.Node) bool {
	for _, n := range stack {
		if _, ok := n.(*ast.CompositeLit); ok {
			return true
		}
	}
	return false
}
