package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// LockOrder derives a whole-program lock-acquisition-order graph and
// reports every cycle as a potential deadlock. An edge A -> B means some
// function acquires B (directly, or transitively through a statically
// resolvable call chain) at a program point where the flow analysis proves
// A is held. Two goroutines taking {A then B} and {B then A} deadlock under
// the right interleaving without either path ever being wrong in isolation
// — exactly the class of bug -race cannot see until it happens.
//
// Lock identities conflate instances (every *Session shares "the"
// Session.mu, see locks.go), acquisition sites inside go statements are
// excluded (a spawned goroutine does not hold its creator's locks ...
// acquisition order with its creator is a happens-before question, not a
// nesting question), and calls through function values or interface
// methods do not propagate (the call graph is the static approximation in
// callgraph.go). `// permlint:held mu` annotations seed a method's held
// set the same way lockcheck uses them.
//
// A self-edge A -> A (re-acquiring a lock already held, directly or via a
// callee) is reported unless both sides are read locks.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc: "the whole-program lock-acquisition-order graph must be acyclic " +
		"(a cycle is a potential deadlock)",
	Run: runLockOrder,
}

const (
	kindWrite uint8 = 1 << iota
	kindRead
)

// lockOrderEdge is one acquisition-order observation.
type lockOrderEdge struct {
	from, to lockID
	// fromKind/toKind are the acquisition kinds (write/read bitmask).
	fromKind, toKind uint8
	// pos is where `to` is acquired (or the call site that leads to it);
	// via names the callee for transitive edges.
	pos     token.Pos
	via     string
	pkgPath string
}

// lockOrderFinding is one precomputed diagnostic, attributed to a package
// so the per-package pass that owns the position reports it exactly once.
type lockOrderFinding struct {
	pos     token.Pos
	pkgPath string
	msg     string
}

type lockOrderGraph struct {
	edges  []*lockOrderEdge
	byPair map[[2]lockID]*lockOrderEdge

	findings []lockOrderFinding
}

func runLockOrder(pass *Pass) error {
	g := pass.Cache.LockOrderGraph()
	for _, f := range g.findings {
		if f.pkgPath == pass.Pkg.PkgPath {
			pass.Reportf(f.pos, "%s", f.msg)
		}
	}
	return nil
}

// LockOrderGraph returns the run's acquisition-order graph, building it on
// first use.
func (c *RunCache) LockOrderGraph() *lockOrderGraph {
	if c.lockGraph == nil {
		c.lockGraph = buildLockOrderGraph(c)
	}
	return c.lockGraph
}

func buildLockOrderGraph(cache *RunCache) *lockOrderGraph {
	cg := cache.CallGraph()
	funcs := cg.SortedFuncs()

	// 1. Direct acquisitions per function: every Lock/RLock anywhere in
	// the body — closures and defers included, go statements excluded.
	direct := map[*types.Func]map[lockID]uint8{}
	for _, fi := range funcs {
		acq := map[lockID]uint8{}
		var walk func(n ast.Node) bool
		walk = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				return false
			case *ast.CallExpr:
				if id, op, ok := classifyLockCall(fi.Pkg.Info, n); ok && op.acquires() {
					if op == opLock {
						acq[id] |= kindWrite
					} else {
						acq[id] |= kindRead
					}
				}
			}
			return true
		}
		ast.Inspect(fi.Decl.Body, walk)
		direct[fi.Fn] = acq
	}

	// 2. Transitive closure over the call graph: mayAcquire(f) = direct(f)
	// ∪ mayAcquire(callees). Plain Kleene iteration; the graph is small.
	may := map[*types.Func]map[lockID]uint8{}
	for fn, acq := range direct {
		cp := map[lockID]uint8{}
		for id, k := range acq {
			cp[id] = k
		}
		may[fn] = cp
	}
	for changed := true; changed; {
		changed = false
		for _, fi := range funcs {
			mine := may[fi.Fn]
			for _, callee := range fi.Callees {
				for id, k := range may[callee] {
					if mine[id]&k != k {
						mine[id] |= k
						changed = true
					}
				}
			}
		}
	}

	g := &lockOrderGraph{byPair: map[[2]lockID]*lockOrderEdge{}}

	// 3. Flow-sensitive edge extraction: replay each function with the
	// lockcheck fact lattice; at every acquisition or resolvable call made
	// while a lock is definitely held, add held -> acquired edges.
	for _, fi := range funcs {
		g.extractEdges(cache, fi, may)
	}

	// 4. Findings: self-edges and cycles.
	g.computeFindings(cache)
	return g
}

func (g *lockOrderGraph) addEdge(e *lockOrderEdge) {
	key := [2]lockID{e.from, e.to}
	if have, ok := g.byPair[key]; ok {
		have.fromKind |= e.fromKind
		have.toKind |= e.toKind
		return
	}
	g.byPair[key] = e
	g.edges = append(g.edges, e)
}

// heldInitFact seeds the flow from a permlint:held annotation, exactly as
// lockcheck does.
func heldInitFact(fi *FuncInfo) lockFact {
	fact := lockFact{}
	heldSet := heldGuards(fi.Decl)
	if len(heldSet) == 0 || fi.Decl.Recv == nil || len(fi.Decl.Recv.List) == 0 {
		return fact
	}
	recvT := fi.Pkg.Info.Types[fi.Decl.Recv.List[0].Type].Type
	if recvT == nil {
		return fact
	}
	for gname := range heldSet {
		fact[lockID{recv: derefNamed(recvT), guard: gname}] = lockVal{w: held, initial: true}
	}
	return fact
}

func (g *lockOrderGraph) extractEdges(cache *RunCache, fi *FuncInfo, may map[*types.Func]map[lockID]uint8) {
	info := fi.Pkg.Info
	cfg := cache.FuncCFG(fi.Decl, info)
	flow := &Flow[lockFact]{
		CFG:  cfg,
		Init: heldInitFact(fi),
		Transfer: func(n ast.Node, fact lockFact) lockFact {
			forEachLockCall(info, n, func(call *ast.CallExpr, id lockID, op lockOp) {
				fact = applyLockOp(fact, call, id, op, nil)
			})
			return fact
		},
		Join:  joinLockFacts,
		Equal: equalLockFacts,
	}
	in := flow.Solve()

	// heldIDs lists the locks definitely held in fact, with kinds.
	heldIDs := func(fact lockFact) map[lockID]uint8 {
		out := map[lockID]uint8{}
		for id, v := range fact {
			var k uint8
			if v.w == held {
				k |= kindWrite
			}
			if v.r == held {
				k |= kindRead
			}
			if k != 0 {
				out[id] = k
			}
		}
		return out
	}

	for _, blk := range cfg.Blocks {
		fact, reached := in[blk]
		if !reached {
			continue
		}
		for _, n := range blk.Nodes {
			ast.Inspect(cfgEvalNode(n), func(sub ast.Node) bool {
				switch sub := sub.(type) {
				case *ast.FuncLit, *ast.DeferStmt, *ast.GoStmt:
					return false
				case *ast.CallExpr:
					if id, op, ok := classifyLockCall(info, sub); ok {
						if op.acquires() {
							k := kindRead
							if op == opLock {
								k = kindWrite
							}
							for h, hk := range heldIDs(fact) {
								g.addEdge(&lockOrderEdge{
									from: h, to: id,
									fromKind: hk, toKind: k,
									pos: sub.Pos(), pkgPath: fi.Pkg.PkgPath,
								})
							}
						}
						fact = applyLockOp(fact, sub, id, op, nil)
						return true
					}
					callee := calleeOf(info, sub)
					if callee == nil {
						return true
					}
					acq := may[callee]
					if len(acq) == 0 {
						return true
					}
					for h, hk := range heldIDs(fact) {
						for id, k := range acq {
							g.addEdge(&lockOrderEdge{
								from: h, to: id,
								fromKind: hk, toKind: k,
								pos: sub.Pos(), via: callee.Name(), pkgPath: fi.Pkg.PkgPath,
							})
						}
					}
				}
				return true
			})
		}
	}
}

func (g *lockOrderGraph) computeFindings(cache *RunCache) {
	fset := sharedFset(cache)

	site := func(e *lockOrderEdge) string {
		p := fset.Position(e.pos)
		s := fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
		if e.via != "" {
			s += " via " + e.via
		}
		return s
	}

	// Self-edges: re-acquisition while held. Read-read is tolerated
	// (RLock is shareable; the writer-starvation hazard is not a cycle).
	for _, e := range g.edges {
		if e.from != e.to {
			continue
		}
		if e.fromKind == kindRead && e.toKind == kindRead {
			continue
		}
		g.findings = append(g.findings, lockOrderFinding{
			pos:     e.pos,
			pkgPath: e.pkgPath,
			msg: fmt.Sprintf("potential self-deadlock: %s is re-acquired while already held (%s)",
				e.from, site(e)),
		})
	}

	// Cycles: strongly connected components of size >= 2.
	for _, scc := range g.sccs() {
		if len(scc) < 2 {
			continue
		}
		inSCC := map[lockID]bool{}
		for _, id := range scc {
			inSCC[id] = true
		}
		var cycleEdges []*lockOrderEdge
		for _, e := range g.edges {
			if e.from != e.to && inSCC[e.from] && inSCC[e.to] {
				cycleEdges = append(cycleEdges, e)
			}
		}
		sort.Slice(cycleEdges, func(i, j int) bool {
			if cycleEdges[i].from.String() != cycleEdges[j].from.String() {
				return cycleEdges[i].from.String() < cycleEdges[j].from.String()
			}
			return cycleEdges[i].to.String() < cycleEdges[j].to.String()
		})
		parts := make([]string, len(cycleEdges))
		for i, e := range cycleEdges {
			parts[i] = fmt.Sprintf("%s -> %s (%s)", e.from, e.to, site(e))
		}
		g.findings = append(g.findings, lockOrderFinding{
			pos:     cycleEdges[0].pos,
			pkgPath: cycleEdges[0].pkgPath,
			msg: "potential deadlock: lock-acquisition-order cycle: " +
				strings.Join(parts, ", ") + "; acquire these locks in one global order",
		})
	}
}

// sharedFset digs the run's FileSet out of any analyzed package.
func sharedFset(cache *RunCache) *token.FileSet {
	for _, p := range cache.analyzedPackages() {
		return p.Fset
	}
	return token.NewFileSet()
}

// sccs returns the strongly connected components of the graph (Tarjan).
func (g *lockOrderGraph) sccs() [][]lockID {
	adj := map[lockID][]lockID{}
	nodes := map[lockID]bool{}
	for _, e := range g.edges {
		nodes[e.from], nodes[e.to] = true, true
		if e.from != e.to {
			adj[e.from] = append(adj[e.from], e.to)
		}
	}
	sorted := make([]lockID, 0, len(nodes))
	for id := range nodes {
		sorted = append(sorted, id)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].String() < sorted[j].String() })

	index := map[lockID]int{}
	low := map[lockID]int{}
	onStack := map[lockID]bool{}
	var stack []lockID
	var out [][]lockID
	next := 0
	var strongconnect func(v lockID)
	strongconnect = func(v lockID) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []lockID
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			out = append(out, scc)
		}
	}
	for _, v := range sorted {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}
	return out
}
