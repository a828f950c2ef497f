package lint

import (
	"go/ast"
	"go/token"
)

// This file is the flow-sensitive tier's foundation: a dependency-free
// control-flow graph over go/ast function bodies plus a forward-dataflow
// worklist solver. The shape deliberately mirrors golang.org/x/tools/go/cfg
// (Blocks of statements connected by Succs edges) so analyzers written here
// survive a migration to the real package.
//
// Statements are never split: a Block's Nodes are whole statements (plus
// condition expressions), and analyzers that need sub-statement precision
// walk a node's expression tree in evaluation (pre-)order themselves.
// Function literals nested in a body are NOT part of the enclosing CFG —
// their statements execute at call time, not in the enclosing flow — and
// must be analyzed as separate CFGs by the analyzer.

// A CFG is the control-flow graph of one function body.
type CFG struct {
	// Entry is the block control enters first. Exit is a virtual empty
	// block every terminating path (return, fall-off-the-end, panic)
	// reaches; deferred calls conceptually run on the Exit edge.
	Entry, Exit *Block
	// Blocks lists every block, Entry first, Exit last.
	Blocks []*Block
	// Defers are the function's defer statements in lexical order. The CFG
	// does not model which defers are pending on which path; analyzers
	// treat every recorded defer as running at Exit (a sound
	// over-approximation for the lock-release and close patterns checked
	// here, where defers are unconditional first-statement idioms).
	Defers []*ast.DeferStmt
}

// cfgEvalNode maps a block node to the part actually evaluated at that
// program point: a RangeStmt head evaluates only its range expression (the
// body statements occupy their own blocks). Walkers that interpret CFG
// nodes must go through this or they will apply body effects twice.
func cfgEvalNode(n ast.Node) ast.Node {
	if r, ok := n.(*ast.RangeStmt); ok {
		return r.X
	}
	return n
}

// A Block is a maximal straight-line statement sequence.
type Block struct {
	Nodes []ast.Node
	Succs []*Block
	// PanicExit marks a block that reaches Exit only by panicking or
	// os.Exit-style termination (no ordinary return). Balance checks skip
	// leak reports on such paths: the process or goroutine is going down
	// anyway and deferred releases still run on panic.
	PanicExit bool
}

func (b *Block) addSucc(s *Block) {
	if s == nil {
		return
	}
	for _, have := range b.Succs {
		if have == s {
			return
		}
	}
	b.Succs = append(b.Succs, s)
}

// BuildCFG constructs the control-flow graph of body. The info map is used
// only to recognize terminating calls (panic, os.Exit); pass nil to treat
// every call as returning.
func BuildCFG(body *ast.BlockStmt, isTerminatingCall func(*ast.CallExpr) bool) *CFG {
	b := &cfgBuilder{
		cfg:         &CFG{},
		terminating: isTerminatingCall,
		labels:      map[string]*labelInfo{},
	}
	b.cfg.Entry = b.newBlock()
	b.cfg.Exit = &Block{}
	b.cur = b.cfg.Entry
	b.stmtList(body.List)
	if b.cur != nil {
		b.cur.addSucc(b.cfg.Exit) // fall off the end
	}
	for _, g := range b.gotos {
		if li := b.labels[g.label]; li != nil {
			g.from.addSucc(li.target)
		}
	}
	b.cfg.Blocks = append(b.cfg.Blocks, b.cfg.Exit)
	return b.cfg
}

// labelInfo records the blocks a label's goto/break/continue resolve to.
type labelInfo struct {
	target     *Block // goto target: the labeled statement's block
	breakTo    *Block // filled when the labeled statement is a loop/switch/select
	continueTo *Block
}

type pendingGoto struct {
	from  *Block
	label string
}

type cfgBuilder struct {
	cfg         *CFG
	cur         *Block // nil only transiently; after a terminator a fresh unreachable block is started lazily
	terminating func(*ast.CallExpr) bool

	// break/continue target stacks for unlabeled branches.
	breaks    []*Block
	continues []*Block

	labels map[string]*labelInfo
	gotos  []pendingGoto

	// pendingLabel is set while building the statement a label names, so
	// the loop/switch builders can register their break/continue targets.
	pendingLabel *labelInfo

	// fallthroughTo is the next case clause's block while building a
	// switch case body.
	fallthroughTo *Block
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

// startUnreachable begins a fresh block with no predecessors for the code
// after a terminator (return/break/goto); it stays unreached unless a label
// lands on it.
func (b *cfgBuilder) startUnreachable() {
	b.cur = b.newBlock()
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// isTerminatingExpr reports whether the statement's call never returns.
func (b *cfgBuilder) isTerminatingExpr(s ast.Stmt) bool {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
		return true
	}
	return b.terminating != nil && b.terminating(call)
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)
	case *ast.LabeledStmt:
		lb := b.newBlock()
		b.cur.addSucc(lb)
		b.cur = lb
		li := &labelInfo{target: lb}
		b.labels[s.Label.Name] = li
		b.pendingLabel = li
		b.stmt(s.Stmt)
		b.pendingLabel = nil
	case *ast.ReturnStmt:
		b.cur.Nodes = append(b.cur.Nodes, s)
		b.cur.addSucc(b.cfg.Exit)
		b.startUnreachable()
	case *ast.BranchStmt:
		b.branch(s)
	case *ast.DeferStmt:
		b.cur.Nodes = append(b.cur.Nodes, s)
		b.cfg.Defers = append(b.cfg.Defers, s)
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s)
	case *ast.RangeStmt:
		b.rangeStmt(s)
	case *ast.SwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Tag != nil {
			b.cur.Nodes = append(b.cur.Nodes, s.Tag)
		}
		b.switchBody(s.Body)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.cur.Nodes = append(b.cur.Nodes, s.Assign)
		b.switchBody(s.Body)
	case *ast.SelectStmt:
		b.selectStmt(s)
	default:
		// ExprStmt, AssignStmt, DeclStmt, IncDecStmt, SendStmt, GoStmt,
		// EmptyStmt: straight-line.
		b.cur.Nodes = append(b.cur.Nodes, s)
		if b.isTerminatingExpr(s) {
			b.cur.PanicExit = true
			b.cur.addSucc(b.cfg.Exit)
			b.startUnreachable()
		}
	}
}

func (b *cfgBuilder) branch(s *ast.BranchStmt) {
	switch s.Tok {
	case token.BREAK:
		var target *Block
		if s.Label != nil {
			if li := b.labels[s.Label.Name]; li != nil {
				target = li.breakTo
			}
		} else if len(b.breaks) > 0 {
			target = b.breaks[len(b.breaks)-1]
		}
		b.cur.addSucc(target)
		b.startUnreachable()
	case token.CONTINUE:
		var target *Block
		if s.Label != nil {
			if li := b.labels[s.Label.Name]; li != nil {
				target = li.continueTo
			}
		} else if len(b.continues) > 0 {
			target = b.continues[len(b.continues)-1]
		}
		b.cur.addSucc(target)
		b.startUnreachable()
	case token.GOTO:
		b.gotos = append(b.gotos, pendingGoto{from: b.cur, label: s.Label.Name})
		b.startUnreachable()
	case token.FALLTHROUGH:
		b.cur.addSucc(b.fallthroughTo)
		b.startUnreachable()
	}
}

func (b *cfgBuilder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	b.cur.Nodes = append(b.cur.Nodes, s.Cond)
	cond := b.cur
	after := b.newBlock()
	then := b.newBlock()
	cond.addSucc(then)
	b.cur = then
	b.stmtList(s.Body.List)
	b.cur.addSucc(after)
	if s.Else != nil {
		els := b.newBlock()
		cond.addSucc(els)
		b.cur = els
		b.stmt(s.Else)
		b.cur.addSucc(after)
	} else {
		cond.addSucc(after)
	}
	b.cur = after
}

// isTrueConst reports a for-condition that can never be false (absent or
// the literal true), making the loop exit only by break/return/goto.
func isTrueConst(e ast.Expr) bool {
	if e == nil {
		return true
	}
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "true"
}

func (b *cfgBuilder) forStmt(s *ast.ForStmt) {
	label := b.pendingLabel
	b.pendingLabel = nil
	if s.Init != nil {
		b.stmt(s.Init)
	}
	head := b.newBlock()
	b.cur.addSucc(head)
	if s.Cond != nil {
		head.Nodes = append(head.Nodes, s.Cond)
	}
	after := b.newBlock()
	if !isTrueConst(s.Cond) {
		head.addSucc(after)
	}
	cont := head
	if s.Post != nil {
		cont = b.newBlock()
		cont.Nodes = append(cont.Nodes, s.Post)
		cont.addSucc(head)
	}
	if label != nil {
		label.breakTo, label.continueTo = after, cont
	}
	body := b.newBlock()
	head.addSucc(body)
	b.breaks = append(b.breaks, after)
	b.continues = append(b.continues, cont)
	b.cur = body
	b.stmtList(s.Body.List)
	b.cur.addSucc(cont)
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
	b.cur = after
}

func (b *cfgBuilder) rangeStmt(s *ast.RangeStmt) {
	label := b.pendingLabel
	b.pendingLabel = nil
	head := b.newBlock()
	// The RangeStmt node itself sits in the head block so per-iteration
	// transfer functions (key/value rebinding, channel receives) see it.
	head.Nodes = append(head.Nodes, s)
	b.cur.addSucc(head)
	after := b.newBlock()
	head.addSucc(after)
	if label != nil {
		label.breakTo, label.continueTo = after, head
	}
	body := b.newBlock()
	head.addSucc(body)
	b.breaks = append(b.breaks, after)
	b.continues = append(b.continues, head)
	b.cur = body
	b.stmtList(s.Body.List)
	b.cur.addSucc(head)
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
	b.cur = after
}

// switchBody builds the clauses of a switch or type switch.
func (b *cfgBuilder) switchBody(body *ast.BlockStmt) {
	label := b.pendingLabel
	b.pendingLabel = nil
	head := b.cur
	after := b.newBlock()
	if label != nil {
		label.breakTo = after
	}
	var clauses []*ast.CaseClause
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok {
			clauses = append(clauses, cc)
		}
	}
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, cc := range clauses {
		blocks[i] = b.newBlock()
		head.addSucc(blocks[i])
		if cc.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		head.addSucc(after)
	}
	b.breaks = append(b.breaks, after)
	for i, cc := range clauses {
		b.cur = blocks[i]
		for _, e := range cc.List {
			b.cur.Nodes = append(b.cur.Nodes, e)
		}
		if i+1 < len(clauses) {
			b.fallthroughTo = blocks[i+1]
		} else {
			b.fallthroughTo = nil
		}
		b.stmtList(cc.Body)
		b.cur.addSucc(after)
	}
	b.fallthroughTo = nil
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.cur = after
}

func (b *cfgBuilder) selectStmt(s *ast.SelectStmt) {
	label := b.pendingLabel
	b.pendingLabel = nil
	head := b.cur
	after := b.newBlock()
	if label != nil {
		label.breakTo = after
	}
	b.breaks = append(b.breaks, after)
	for _, c := range s.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		blk := b.newBlock()
		head.addSucc(blk)
		if cc.Comm != nil {
			blk.Nodes = append(blk.Nodes, cc.Comm)
		}
		b.cur = blk
		b.stmtList(cc.Body)
		b.cur.addSucc(after)
	}
	// A select with no default blocks until an arm fires; every arm's edge
	// already exists, so head has no direct edge to after. With zero arms
	// (select{}) the statement blocks forever: no successor at all.
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.cur = after
}

// --- forward dataflow ---

// A Flow is a forward dataflow problem over a CFG: facts of type F flow
// along edges, merged at joins with Join, transformed per node by Transfer.
// The framework iterates to fixpoint with a worklist; termination requires
// Join/Transfer to be monotone over a finite-height lattice (every fact
// used here is a small finite map).
type Flow[F any] struct {
	CFG *CFG
	// Init is the fact at Entry.
	Init F
	// Transfer produces the fact after node n given the fact before it.
	// It must not mutate its input.
	Transfer func(n ast.Node, fact F) F
	// Join merges two incoming facts at a block with several predecessors.
	Join func(a, b F) F
	// Equal detects the fixpoint.
	Equal func(a, b F) bool
}

// Solve returns the fact at entry to each reached block. Unreached blocks
// (dead code) are absent from the map.
func (fl *Flow[F]) Solve() map[*Block]F {
	in := map[*Block]F{fl.CFG.Entry: fl.Init}
	work := []*Block{fl.CFG.Entry}
	inWork := map[*Block]bool{fl.CFG.Entry: true}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		inWork[b] = false
		fact := in[b]
		for _, n := range b.Nodes {
			fact = fl.Transfer(n, fact)
		}
		for _, s := range b.Succs {
			have, ok := in[s]
			next := fact
			if ok {
				next = fl.Join(have, fact)
				if fl.Equal(have, next) {
					continue
				}
			}
			in[s] = next
			if !inWork[s] {
				inWork[s] = true
				work = append(work, s)
			}
		}
	}
	return in
}
