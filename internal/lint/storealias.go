package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the store/alias core of the mutation-and-purity tier: an
// SSA-lite value-numbering analysis run per function over the Flow[F]
// solver. Every allocation site (composite literal, new, make, a call to a
// function proven to return fresh memory) is one abstract value; the
// analysis tracks which values each local variable may hold, which values
// have been published (returned, stored into shared memory, sent on a
// channel, captured by a closure), and what each value's fields contain
// (field-sensitive containment, so a fresh node built from fresh parts
// stays mutable until the whole graph is published). immutcheck, purity
// and the interprocedural hotalloc upgrade all consume the per-function
// effects and the whole-program summaries computed in summary.go.
//
// Known approximations, shared with the call graph this builds on: calls
// through function values and interface methods resolve to no summary and
// are treated as neither mutating nor publishing their arguments
// (optimistic — the same bet buildCallGraph already makes); taking the
// address of a plain local variable, dereferencing a pointer rvalue and
// reading a field of a published value all go to the shared ⊤; closure
// captures are published at the closure's creation point.

// An absVal is one abstract value: an allocation site or fresh call result
// (site != nil), or the memory reachable from a parameter (site == nil).
type absVal struct {
	site ast.Node // allocation site or call expression
	res  int      // result index for multi-result fresh calls
	// param is the parameter index (receiver first) when site == nil.
	param int
	// viaField marks parameter-reachable memory loaded through a field,
	// element or dereference: mutating it is a deep mutation of the
	// argument, not a store into the argument's own header.
	viaField bool
}

func (v absVal) isParam() bool { return v.site == nil }

// A valSet is the set of abstract values an expression may evaluate to.
// top is the shared ⊤: memory anyone may hold.
type valSet struct {
	top  bool
	vals map[absVal]bool
}

var topSet = valSet{top: true}

func oneVal(v absVal) valSet { return valSet{vals: map[absVal]bool{v: true}} }

func (s valSet) empty() bool { return !s.top && len(s.vals) == 0 }

func unionVals(a, b valSet) valSet {
	if a.top || b.top {
		return topSet
	}
	if len(b.vals) == 0 {
		return a
	}
	if len(a.vals) == 0 {
		return b
	}
	out := make(map[absVal]bool, len(a.vals)+len(b.vals))
	for v := range a.vals {
		out[v] = true
	}
	for v := range b.vals {
		out[v] = true
	}
	return valSet{vals: out}
}

func equalVals(a, b valSet) bool {
	if a.top != b.top || len(a.vals) != len(b.vals) {
		return false
	}
	for v := range a.vals {
		if !b.vals[v] {
			return false
		}
	}
	return true
}

// freshFact is the dataflow fact: what each tracked local may hold, and
// which allocation sites have been published so far on this path.
type freshFact struct {
	env map[types.Object]valSet
	pub map[absVal]bool
}

func (f freshFact) clone() freshFact {
	out := freshFact{
		env: make(map[types.Object]valSet, len(f.env)),
		pub: make(map[absVal]bool, len(f.pub)),
	}
	for k, v := range f.env {
		out.env[k] = v
	}
	for k := range f.pub {
		out.pub[k] = true
	}
	return out
}

func joinFresh(a, b freshFact) freshFact {
	out := freshFact{env: map[types.Object]valSet{}, pub: map[absVal]bool{}}
	for k, av := range a.env {
		if bv, ok := b.env[k]; ok {
			out.env[k] = unionVals(av, bv)
		} else {
			// Absent on the other path: the variable was not assigned
			// there, so anything could be in it.
			out.env[k] = topSet
		}
	}
	for k := range b.env {
		if _, ok := a.env[k]; !ok {
			out.env[k] = topSet
		}
	}
	for k := range a.pub {
		out.pub[k] = true
	}
	for k := range b.pub {
		out.pub[k] = true
	}
	return out
}

func equalFresh(a, b freshFact) bool {
	if len(a.env) != len(b.env) || len(a.pub) != len(b.pub) {
		return false
	}
	for k, av := range a.env {
		bv, ok := b.env[k]
		if !ok || !equalVals(av, bv) {
			return false
		}
	}
	for k := range a.pub {
		if !b.pub[k] {
			return false
		}
	}
	return true
}

// Result-freshness levels (FuncSummary.ResultFresh).
const (
	freshNone    int8 = 0
	freshShallow int8 = 1
	freshDeep    int8 = 2
)

// A frozenWrite is one immutcheck finding candidate: a store into frozen
// memory the analysis cannot prove fresh-and-unpublished.
type frozenWrite struct {
	pos  token.Pos
	typ  string // the frozen type's name
	how  string // "field write", "element write", "in-place append", ...
	call string // non-empty when the mutation happens inside a callee
}

// funcEffects is everything one function body's analysis produced. The
// interprocedural bits feed the summary fixpoint; the frozen writes are
// immutcheck's report list.
type funcEffects struct {
	fn   *types.Func
	decl *ast.FuncDecl
	pkg  *Package

	// mutFrozen maps a parameter index to the freshness level an argument
	// must have for the call to be safe: freshShallow when only the
	// argument's own fields are written, freshDeep when memory loaded
	// through its fields is.
	mutFrozen map[int]int8
	// mutParams are parameters whose reachable memory is written at all
	// (frozen or not); escParams are parameters published by the body.
	mutParams map[int]bool
	escParams map[int]bool

	mutShared    bool // writes globals or memory reachable from ⊤
	readsGlobal  bool
	callsUnknown bool
	sends        bool // channel sends or goroutine launches

	// allocs are the body's direct allocation sites (kind: make, new,
	// append, composite literal, closure), for the hotalloc chains.
	allocs map[token.Pos]string

	resultFresh []int8

	frozenWrites map[token.Pos]frozenWrite
}

func newFuncEffects(fn *types.Func, decl *ast.FuncDecl, pkg *Package) *funcEffects {
	return &funcEffects{
		fn: fn, decl: decl, pkg: pkg,
		mutFrozen:    map[int]int8{},
		mutParams:    map[int]bool{},
		escParams:    map[int]bool{},
		allocs:       map[token.Pos]string{},
		frozenWrites: map[token.Pos]frozenWrite{},
	}
}

// funcFresh is the analysis state for one function or function literal.
type funcFresh struct {
	pkg    *Package
	info   *types.Info
	cache  *RunCache
	sums   map[*types.Func]*FuncSummary
	frozen map[*types.TypeName]bool

	params []*types.Var // receiver first; nil for unnamed slots

	// fields is the containment graph: what each allocation site's fields
	// may hold. Accumulated monotonically across the whole fixpoint (weak
	// updates only), so it lives outside the flow fact.
	fields map[absVal]map[string]valSet
	// dirty marks sites whose contents a callee may have overwritten:
	// field reads go to ⊤ and the site is never deep-fresh.
	dirty map[absVal]bool
	// deepExt marks fresh call results whose callee proved the whole
	// reachable graph fresh; field loads from them stay fresh.
	deepExt map[absVal]bool
	// litDone memoizes nested literal analyses (the transfer function may
	// visit the creation point many times during the fixpoint).
	litDone map[*ast.FuncLit]*funcEffects

	eff *funcEffects
}

// paramVars lists a declaration's receiver and parameters in signature
// order from the AST field lists (nil for unnamed slots).
func paramVars(info *types.Info, recv *ast.FieldList, params *ast.FieldList) []*types.Var {
	var out []*types.Var
	addList := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			if len(field.Names) == 0 {
				out = append(out, nil)
				continue
			}
			for _, name := range field.Names {
				v, _ := info.Defs[name].(*types.Var)
				out = append(out, v)
			}
		}
	}
	addList(recv)
	addList(params)
	return out
}

// analyzeFunc runs the freshness dataflow over one body and returns its
// effects. Nested function literals are analyzed recursively: their
// shared-state effects and frozen writes fold into the parent (the body
// runs on the parent's behalf), their parameter effects do not (calls
// through function values are unresolved).
func analyzeFunc(cache *RunCache, pkg *Package, fn *types.Func, decl *ast.FuncDecl,
	sums map[*types.Func]*FuncSummary, frozen map[*types.TypeName]bool) *funcEffects {

	eff := newFuncEffects(fn, decl, pkg)
	a := &funcFresh{
		pkg: pkg, info: pkg.Info, cache: cache, sums: sums, frozen: frozen,
		params:  paramVars(pkg.Info, decl.Recv, decl.Type.Params),
		fields:  map[absVal]map[string]valSet{},
		dirty:   map[absVal]bool{},
		deepExt: map[absVal]bool{},
		eff:     eff,
	}
	nresults := 0
	if decl.Type.Results != nil {
		for _, f := range decl.Type.Results.List {
			if n := len(f.Names); n > 0 {
				nresults += n
			} else {
				nresults++
			}
		}
	}
	eff.resultFresh = make([]int8, nresults)
	for i := range eff.resultFresh {
		eff.resultFresh[i] = freshDeep // meet toward none as returns are seen
	}
	a.solve(decl.Body, decl)
	// A body with no reachable return keeps the optimistic init; no caller
	// can observe the results, so clamp to none for hygiene.
	return eff
}

// solve runs the flow problem over body (a decl's or literal's).
func (a *funcFresh) solve(body *ast.BlockStmt, fnNode ast.Node) {
	init := freshFact{env: map[types.Object]valSet{}, pub: map[absVal]bool{}}
	for i, p := range a.params {
		if p == nil || !trackedType(p.Type()) {
			continue
		}
		init.env[p] = oneVal(absVal{param: i})
	}
	cfg := a.cache.FuncCFG(fnNode, a.info)
	flow := &Flow[freshFact]{
		CFG:  cfg,
		Init: init,
		Transfer: func(n ast.Node, fact freshFact) freshFact {
			w := fact.clone()
			a.node(n, &w)
			return w
		},
		Join:  joinFresh,
		Equal: equalFresh,
	}
	flow.Solve()
}

// trackedType reports whether values of t can reference heap memory worth
// tracking. Basic types and functions are not.
func trackedType(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Basic, *types.Signature:
		return false
	}
	return true
}

// --- transfer function ---

func (a *funcFresh) node(n ast.Node, f *freshFact) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		a.assign(n, f)
	case *ast.DeclStmt:
		gd, ok := n.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			a.bindSpec(vs, f)
		}
	case *ast.ExprStmt:
		a.expr(n.X, f)
	case *ast.IncDecStmt:
		a.store(n.X, valSet{}, f, "field write")
	case *ast.SendStmt:
		a.expr(n.Chan, f)
		v := a.expr(n.Value, f)
		a.publish(v, f)
		a.eff.sends = true
	case *ast.GoStmt:
		a.goCall(n.Call, f)
	case *ast.DeferStmt:
		// Deferred calls run at exit; applying their effects here is a
		// sound over-approximation for the may-facts tracked.
		a.call(n.Call, f)
	case *ast.ReturnStmt:
		a.ret(n, f)
	case *ast.RangeStmt:
		a.rangeHead(n, f)
	case ast.Expr:
		a.expr(n, f)
	}
}

func (a *funcFresh) bindSpec(vs *ast.ValueSpec, f *freshFact) {
	var rhs []valSet
	if len(vs.Values) == 1 && len(vs.Names) > 1 {
		rhs = a.multiExpr(vs.Values[0], len(vs.Names), f)
	} else {
		for _, v := range vs.Values {
			rhs = append(rhs, a.expr(v, f))
		}
	}
	for i, name := range vs.Names {
		obj := a.info.Defs[name]
		if obj == nil || name.Name == "_" || !trackedType(obj.Type()) {
			continue
		}
		if i < len(rhs) {
			f.env[obj] = rhs[i]
			continue
		}
		// Zero value: a struct or array value gets a pseudo allocation
		// site so later field stores into it are tracked; reference kinds
		// hold nothing yet.
		switch obj.Type().Underlying().(type) {
		case *types.Struct, *types.Array:
			f.env[obj] = a.freshGen(absVal{site: name}, f)
		default:
			f.env[obj] = valSet{}
		}
	}
}

func (a *funcFresh) assign(n *ast.AssignStmt, f *freshFact) {
	var rhs []valSet
	if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
		rhs = a.multiExpr(n.Rhs[0], len(n.Lhs), f)
	} else {
		for _, r := range n.Rhs {
			rhs = append(rhs, a.expr(r, f))
		}
	}
	for i, lhs := range n.Lhs {
		var v valSet
		if i < len(rhs) {
			v = rhs[i]
		}
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
			if id.Name == "_" {
				continue
			}
			obj := a.info.Defs[id]
			if obj == nil {
				obj = a.info.Uses[id]
			}
			if obj == nil {
				continue
			}
			if isPackageLevel(obj) {
				a.eff.mutShared = true
				a.publish(v, f)
				continue
			}
			if trackedType(obj.Type()) {
				f.env[obj] = v
			}
			continue
		}
		a.store(lhs, v, f, "")
	}
}

// multiExpr evaluates a single expression producing n values (a call, a
// map index with ok, a type assertion with ok, a channel receive).
func (a *funcFresh) multiExpr(e ast.Expr, n int, f *freshFact) []valSet {
	out := make([]valSet, n)
	switch e := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		res := a.call(e, f)
		copy(out, res)
		return out
	case *ast.TypeAssertExpr:
		out[0] = a.expr(e.X, f)
		return out
	case *ast.IndexExpr:
		out[0] = a.expr(e, f)
		return out
	case *ast.UnaryExpr:
		a.expr(e, f)
		out[0] = topSet
		return out
	}
	a.expr(e, f)
	for i := range out {
		out[i] = topSet
	}
	return out
}

func (a *funcFresh) ret(n *ast.ReturnStmt, f *freshFact) {
	results := make([]valSet, 0, len(a.eff.resultFresh))
	if len(n.Results) == 0 && len(a.eff.resultFresh) > 0 {
		// Bare return with named results: the result variables hold the
		// values. Unbound ones are ⊤.
		// The result variables are the trailing params of the scope; find
		// them through the signature.
		sig, _ := a.info.Defs[a.eff.decl.Name].(*types.Func)
		if sig != nil {
			st := sig.Type().(*types.Signature)
			for i := 0; i < st.Results().Len(); i++ {
				if v, ok := f.env[st.Results().At(i)]; ok {
					results = append(results, v)
				} else {
					results = append(results, topSet)
				}
			}
		}
	} else {
		for _, r := range n.Results {
			results = append(results, a.expr(r, f))
		}
	}
	for i, v := range results {
		if i >= len(a.eff.resultFresh) {
			break
		}
		level := a.freshLevel(v, f)
		if level < a.eff.resultFresh[i] {
			a.eff.resultFresh[i] = level
		}
		a.publish(v, f)
	}
}

func (a *funcFresh) rangeHead(n *ast.RangeStmt, f *freshFact) {
	xv := a.expr(n.X, f)
	bind := func(e ast.Expr, v valSet) {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name == "_" {
			if e != nil {
				a.store(e, v, f, "")
			}
			return
		}
		obj := a.info.Defs[id]
		if obj == nil {
			obj = a.info.Uses[id]
		}
		if obj != nil && trackedType(obj.Type()) {
			f.env[obj] = v
		}
	}
	if n.Key != nil {
		bind(n.Key, topSet)
	}
	if n.Value != nil {
		bind(n.Value, a.elementsOf(xv, f))
	}
}

// elementsOf returns what the elements of a container value set may hold.
func (a *funcFresh) elementsOf(vs valSet, f *freshFact) valSet {
	if vs.top {
		return topSet
	}
	out := valSet{}
	for v := range vs.vals {
		out = unionVals(out, a.loadField(v, "[]", f))
	}
	return out
}

// --- stores ---

// storeOwner resolves the expression whose value owns the memory an
// lvalue writes: the pointer dereferenced, the slice or map indexed, the
// struct pointer whose field is set. nil means the write stays inside a
// plain local variable.
func storeOwner(info *types.Info, lhs ast.Expr) ast.Expr {
	e := lhs
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			return x.X
		case *ast.IndexExpr:
			return x.X
		case *ast.SelectorExpr:
			if t := info.Types[x.X].Type; t != nil {
				if _, ok := t.Underlying().(*types.Pointer); ok {
					return x.X
				}
			}
			e = x.X
		case *ast.Ident:
			return nil
		default:
			return e
		}
	}
}

// rootIdent returns the identifier at the base of an access chain.
func rootIdent(e ast.Expr) (*ast.Ident, bool) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.Ident:
			return x, true
		default:
			return nil, false
		}
	}
}

// fieldKeyOf names the field or element slot an lvalue writes, for the
// containment graph.
func fieldKeyOf(lhs ast.Expr) string {
	switch x := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		return x.Sel.Name
	case *ast.IndexExpr:
		return "[]"
	case *ast.StarExpr:
		return "*"
	}
	return "?"
}

// store handles a write through lhs of the values in rhs. how overrides
// the finding description ("" chooses by lvalue shape).
func (a *funcFresh) store(lhs ast.Expr, rhs valSet, f *freshFact, how string) {
	if how == "" {
		switch ast.Unparen(lhs).(type) {
		case *ast.IndexExpr:
			how = "element write"
		case *ast.StarExpr:
			how = "pointer write"
		default:
			how = "field write"
		}
	}
	owner := storeOwner(a.info, lhs)
	if owner == nil {
		// The write stays inside a plain variable (v.F = x with v a struct
		// value, or x++): safe when the variable is a still-fresh local,
		// a shared mutation when it is package-level.
		if id, ok := rootIdent(lhs); ok {
			obj := a.info.Uses[id]
			if obj == nil {
				obj = a.info.Defs[id]
			}
			if obj != nil {
				if isPackageLevel(obj) {
					a.eff.mutShared = true
					a.publish(rhs, f)
					// A compound lvalue rooted at a package-level value
					// variable writes shared frozen bytes in place; a bare
					// ident rebinds the variable (assign's own rule).
					if _, bare := ast.Unparen(lhs).(*ast.Ident); !bare {
						if name, frozen := a.frozenChain(lhs); frozen {
							a.eff.frozenWrites[lhs.Pos()] = frozenWrite{pos: lhs.Pos(), typ: name, how: how}
						}
					}
					return
				}
				if vs, ok := f.env[obj]; ok && a.allFresh(vs, f) {
					for v := range vs.vals {
						a.addField(v, fieldKeyOf(lhs), rhs)
					}
					return
				}
			}
		}
		// Unknown local contents: anything stored may be read elsewhere
		// once the local escapes, so treat the values as published.
		a.publish(rhs, f)
		return
	}
	ownerVS := a.expr(owner, f)
	frozenName, frozen := a.frozenChain(lhs)
	a.applyMutation(lhs.Pos(), ownerVS, rhs, f, frozen, frozenName, how, fieldKeyOf(lhs))
}

// applyMutation classifies a write into the memory identified by ownerVS:
// fresh (fine, record containment), parameter-reachable (a summary
// effect), or shared (a frozen write finding when frozen).
func (a *funcFresh) applyMutation(pos token.Pos, ownerVS, rhs valSet, f *freshFact,
	frozen bool, frozenName, how, fieldKey string) {

	if a.allFresh(ownerVS, f) {
		for v := range ownerVS.vals {
			a.addField(v, fieldKey, rhs)
		}
		return
	}
	// Not provably fresh: the write escapes this frame in some way.
	a.publish(rhs, f)
	onlyParams := !ownerVS.top && len(ownerVS.vals) > 0
	for v := range ownerVS.vals {
		if !v.isParam() {
			if !f.pub[v] {
				continue // a fresh val in the mix is fine on its own
			}
			onlyParams = false
			continue
		}
		a.eff.mutParams[v.param] = true
		need := freshShallow
		if v.viaField || fieldKey == "*" {
			need = freshDeep
		}
		if frozen {
			if cur, ok := a.eff.mutFrozen[v.param]; !ok || need > cur {
				a.eff.mutFrozen[v.param] = need
			}
		}
	}
	if onlyParams {
		return // pure parameter effect: checked at call sites
	}
	a.eff.mutShared = true
	if frozen {
		a.eff.frozenWrites[pos] = frozenWrite{pos: pos, typ: frozenName, how: how}
	}
}

// freshGen returns the value set for a new generation of allocation site
// v. Evaluating an allocation expression yields memory that is fresh by
// definition, so a publication recorded for a previous loop iteration's
// generation of the same site is dropped (a recency abstraction). Stale
// aliases of the older generation share the absVal and become optimistic
// with it — the usual allocation-site/loop imprecision, accepted because
// the alternative flags every builder loop that publishes per iteration.
func (a *funcFresh) freshGen(v absVal, f *freshFact) valSet {
	delete(f.pub, v)
	return oneVal(v)
}

// allFresh reports whether every value in vs is a local allocation not yet
// published.
func (a *funcFresh) allFresh(vs valSet, f *freshFact) bool {
	if vs.top {
		return false
	}
	for v := range vs.vals {
		if v.isParam() || f.pub[v] {
			return false
		}
	}
	return true
}

// freshLevel grades a value set: freshDeep when every value and its whole
// reachable containment graph is fresh, freshShallow when only the roots
// are, freshNone otherwise.
func (a *funcFresh) freshLevel(vs valSet, f *freshFact) int8 {
	if !a.allFresh(vs, f) {
		return freshNone
	}
	level := freshDeep
	seen := map[absVal]bool{}
	var deep func(v absVal) bool
	deep = func(v absVal) bool {
		if seen[v] {
			return true
		}
		seen[v] = true
		if a.deepExt[v] {
			return true
		}
		if a.dirty[v] {
			return false
		}
		for _, fv := range a.fields[v] {
			if fv.top {
				return false
			}
			for c := range fv.vals {
				if c.isParam() || f.pub[c] || !deep(c) {
					return false
				}
			}
		}
		return true
	}
	for v := range vs.vals {
		if !deep(v) {
			level = freshShallow
		}
	}
	return level
}

func (a *funcFresh) addField(v absVal, key string, vals valSet) {
	if vals.empty() {
		return
	}
	m := a.fields[v]
	if m == nil {
		m = map[string]valSet{}
		a.fields[v] = m
	}
	m[key] = unionVals(m[key], vals)
}

func (a *funcFresh) loadField(v absVal, key string, f *freshFact) valSet {
	if v.isParam() {
		return oneVal(absVal{param: v.param, viaField: true})
	}
	if a.deepExt[v] {
		return oneVal(v) // stays inside the proven-fresh graph
	}
	if f.pub[v] || a.dirty[v] {
		return topSet
	}
	if m := a.fields[v]; m != nil {
		if fv, ok := m[key]; ok {
			return fv
		}
	}
	return valSet{} // zero value: references nothing
}

// publish marks every allocation in vs, and everything its containment
// graph reaches, as published; parameters in vs escape.
func (a *funcFresh) publish(vs valSet, f *freshFact) {
	if vs.top {
		return
	}
	work := make([]absVal, 0, len(vs.vals))
	for v := range vs.vals {
		work = append(work, v)
	}
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		if v.isParam() {
			a.eff.escParams[v.param] = true
			continue
		}
		if f.pub[v] {
			continue
		}
		f.pub[v] = true
		for _, fv := range a.fields[v] {
			if fv.top {
				continue
			}
			for c := range fv.vals {
				work = append(work, c)
			}
		}
	}
}

// --- frozen types along an lvalue chain ---

// frozenChain reports whether the lvalue writes memory owned by a value
// of a frozen type anywhere along its access chain (p.Cols[i] is frozen
// when p's type is, even though []ProjExpr itself is not annotated).
//
// The lvalue's own type counts only when it is a non-reference: overwriting
// a value-typed slot rewrites frozen bytes in place (aliases of the
// container observe it), while storing into a pointer- or interface-typed
// slot merely replaces a reference and never touches the old pointee
// (leaves[i] = &Select{Child: leaves[i]} wraps a plan node, it does not
// mutate one).
func (a *funcFresh) frozenChain(e ast.Expr) (string, bool) {
	outer := true
	for {
		if t := a.info.Types[e].Type; t != nil {
			isRef := false
			switch t.Underlying().(type) {
			case *types.Pointer, *types.Interface:
				isRef = true
			}
			if !(outer && isRef) {
				if name, ok := frozenTypeName(t, a.frozen); ok {
					return name, true
				}
			}
		}
		outer = false
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return "", false
		}
	}
}

// frozenTypeName unwraps pointers and aliases and reports whether the
// named (or named-interface) type is annotated // perm:frozen.
func frozenTypeName(t types.Type, frozen map[*types.TypeName]bool) (string, bool) {
	for i := 0; i < 10; i++ {
		t = types.Unalias(t)
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Named:
			if frozen[tt.Obj()] {
				return tt.Obj().Name(), true
			}
			return "", false
		default:
			return "", false
		}
	}
	return "", false
}

// frozenReachable reports whether a parameter of type t hands the callee
// frozen memory: a frozen named type, a pointer to one, or a container of
// one.
func frozenReachable(t types.Type, frozen map[*types.TypeName]bool) bool {
	for i := 0; i < 10; i++ {
		if _, ok := frozenTypeName(t, frozen); ok {
			return true
		}
		switch tt := t.Underlying().(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Slice:
			t = tt.Elem()
		case *types.Array:
			t = tt.Elem()
		case *types.Map:
			t = tt.Elem()
		default:
			return false
		}
	}
	return false
}

func isPackageLevel(obj types.Object) bool {
	if obj == nil || obj.Parent() == nil {
		return false
	}
	if _, ok := obj.(*types.Var); !ok {
		return false
	}
	return obj.Parent() == obj.Pkg().Scope()
}

// message renders one frozen write for immutcheck.
func (w frozenWrite) message() string {
	if w.call != "" {
		return fmt.Sprintf("call to %s mutates frozen %s value that may be shared (copy-on-write it)", w.call, w.typ)
	}
	return fmt.Sprintf("%s to frozen %s value after it may have been published (copy-on-write it)", w.how, w.typ)
}
