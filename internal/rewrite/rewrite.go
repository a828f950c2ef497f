package rewrite

import (
	"fmt"

	"perm/internal/algebra"
	"perm/internal/schema"
)

// ProvSource describes the provenance attributes contributed by one base
// relation access of the query. The rewritten plan's schema is the original
// schema followed by the Attrs of every ProvSource in order.
type ProvSource struct {
	// Rel is the base relation name.
	Rel string
	// Disamb distinguishes repeated accesses of the same relation
	// (0 for the first access, 1 for the second, …).
	Disamb int
	// Base is the relation's original schema, qualified by the scan alias.
	Base schema.Schema
	// Attrs are the provenance attribute names (P(R)), unqualified and
	// unique within the rewritten query.
	Attrs []schema.Attr
}

// Result is the outcome of a provenance rewrite.
type Result struct {
	// Plan is q+: it computes the original result tuples extended with the
	// contributing tuples of every base relation.
	Plan algebra.Op
	// Original is the schema of the un-rewritten query; the first
	// Original.Len() attributes of Plan's schema are the original result.
	Original schema.Schema
	// Prov lists the provenance attribute groups, one per base relation
	// access, in schema order after the original attributes.
	Prov []ProvSource
}

// ProvAttrs returns all provenance attributes in schema order.
func (r *Result) ProvAttrs() []schema.Attr {
	var out []schema.Attr
	for _, p := range r.Prov {
		out = append(out, p.Attrs...)
	}
	return out
}

// Rewrite transforms q into q+ under the given sublink strategy. It returns
// ErrNotApplicable (wrapped) when the strategy cannot handle a sublink in q.
func Rewrite(q algebra.Op, strategy Strategy) (*Result, error) {
	return RewriteHooked(q, strategy, nil)
}

// Stage is one rewrite-rule application, as observed by a StageHook: the
// rule that fired, the operator it consumed, and the rewritten plan it
// produced, whose schema must be Input's schema followed by the attributes
// of Prov.
type Stage struct {
	// Rule names the rewrite rule, e.g. "R1/scan", "G1/select",
	// "R5/aggregate", "union".
	Rule string
	// Input is the un-rewritten operator the rule consumed.
	Input algebra.Op
	// Plan is the rewritten result.
	Plan algebra.Op
	// Prov lists the provenance sources of Plan.
	Prov []ProvSource
}

// StageHook observes every rewrite-rule application, bottom-up. Hooks must
// not retain or mutate the plans (algebra trees are shared).
type StageHook func(Stage)

// RewriteHooked is Rewrite with a hook invoked after every rule
// application; benchmark/trace.go counts the rules fired with it. A nil
// hook behaves exactly like Rewrite.
func RewriteHooked(q algebra.Op, strategy Strategy, hook StageHook) (*Result, error) {
	ctx := &rewriter{strategy: strategy, scanSeq: map[string]int{}, hook: hook}
	plan, prov, err := ctx.rewrite(q)
	if err != nil {
		return nil, err
	}
	return &Result{Plan: plan, Original: q.Schema(), Prov: prov}, nil
}

// rewriter carries rewrite-wide state: the strategy, per-relation access
// counters for P(R) disambiguation, a fresh-name counter, and the optional
// per-rule observation hook.
type rewriter struct {
	strategy Strategy
	scanSeq  map[string]int
	fresh    int
	hook     StageHook
}

// freshName returns a new name that cannot collide with user attributes or
// provenance attributes.
func (rw *rewriter) freshName(stem string) string {
	rw.fresh++
	return fmt.Sprintf("_%s%d", stem, rw.fresh)
}

// rewrite dispatches on the operator, returning the rewritten plan and its
// provenance sources, and reports the applied rule to the hook. Invariant:
// plus.Schema() == op.Schema() ++ prov attrs.
func (rw *rewriter) rewrite(op algebra.Op) (algebra.Op, []ProvSource, error) {
	plus, prov, rule, err := rw.rewriteRule(op)
	if err != nil {
		return nil, nil, err
	}
	if rw.hook != nil && rule != "" {
		rw.hook(Stage{Rule: rule, Input: op, Plan: plus, Prov: prov})
	}
	return plus, prov, nil
}

// rewriteRule applies the rule for one operator and names it.
func (rw *rewriter) rewriteRule(op algebra.Op) (algebra.Op, []ProvSource, string, error) {
	switch o := op.(type) {
	case *algebra.Scan:
		plus, prov, err := rw.rewriteScan(o)
		return plus, prov, "R1/scan", err
	case *algebra.Select:
		return rw.rewriteSelect(o)
	case *algebra.Project:
		return rw.rewriteProject(o)
	case *algebra.Cross:
		plus, prov, err := rw.rewriteCross(o)
		return plus, prov, "R4/cross", err
	case *algebra.Join:
		plus, prov, err := rw.rewriteJoin(o)
		return plus, prov, "R4/join", err
	case *algebra.LeftJoin:
		plus, prov, err := rw.rewriteLeftJoin(o)
		return plus, prov, "R4/leftjoin", err
	case *algebra.Aggregate:
		plus, prov, err := rw.rewriteAggregate(o)
		return plus, prov, "R5/aggregate", err
	case *algebra.SetOp:
		plus, prov, err := rw.rewriteSetOp(o)
		return plus, prov, setOpRule(o.Kind), err
	case *algebra.Order:
		child, prov, err := rw.rewrite(o.Child)
		if err != nil {
			return nil, nil, "", err
		}
		return &algebra.Order{Child: child, Keys: o.Keys}, prov, "order", nil
	case *algebra.Limit:
		return nil, nil, "", fmt.Errorf("rewrite: LIMIT queries have no provenance semantics in the paper; remove the limit before asking for provenance")
	case *algebra.Values:
		// Literal relations contribute no base provenance (and no stage
		// worth observing).
		return o, nil, "", nil
	default:
		return nil, nil, "", fmt.Errorf("rewrite: unsupported operator %T", op)
	}
}

func setOpRule(k algebra.SetOpKind) string {
	switch k {
	case algebra.Union:
		return "union"
	case algebra.Intersect:
		return "intersect"
	case algebra.Except:
		return "except"
	default:
		return "setop"
	}
}

// rewriteScan is rule R1: R+ = Π_{R, R→P(R)}(R).
func (rw *rewriter) rewriteScan(s *algebra.Scan) (algebra.Op, []ProvSource, error) {
	disamb := rw.scanSeq[s.Name]
	rw.scanSeq[s.Name]++
	provSch := schema.ProvSchema(s.Name, s.Sch, disamb)

	cols := make([]algebra.ProjExpr, 0, 2*s.Sch.Len())
	for _, a := range s.Sch.Attrs {
		cols = append(cols, algebra.KeepAttr(a))
	}
	for i, a := range s.Sch.Attrs {
		cols = append(cols, algebra.Col(algebra.QAttr(a.Qual, a.Name), provSch.Attrs[i].Name))
	}
	src := ProvSource{Rel: s.Name, Disamb: disamb, Base: s.Sch, Attrs: provSch.Attrs}
	return algebra.NewProject(s, cols...), []ProvSource{src}, nil
}

// rewriteSelect is rule R3 for sublink-free conditions and dispatches to the
// strategy rules (G1, L1, T1, U1/U2) otherwise.
func (rw *rewriter) rewriteSelect(s *algebra.Select) (algebra.Op, []ProvSource, string, error) {
	if !algebra.HasSublink(s.Cond) {
		child, prov, err := rw.rewrite(s.Child)
		if err != nil {
			return nil, nil, "", err
		}
		return &algebra.Select{Child: child, Cond: s.Cond}, prov, "R3/select", nil
	}
	switch rw.strategy {
	case Gen:
		plus, prov, err := rw.genSelect(s)
		return plus, prov, "G1/select", err
	case Left:
		plus, prov, err := rw.leftSelect(s)
		return plus, prov, "L1/select", err
	case Move:
		plus, prov, err := rw.moveSelect(s)
		return plus, prov, "T1/select", err
	case Unn:
		plus, prov, err := rw.unnSelect(s)
		return plus, prov, "U/select", err
	case UnnX:
		plus, prov, err := rw.unnxSelect(s)
		return plus, prov, "X/select", err
	case Auto:
		return rw.autoSelect(s)
	default:
		return nil, nil, "", fmt.Errorf("rewrite: unknown strategy %v", rw.strategy)
	}
}

// rewriteProject is rule R2 for sublink-free projections and dispatches to
// the strategy rules (G2, L2, T2) otherwise.
func (rw *rewriter) rewriteProject(p *algebra.Project) (algebra.Op, []ProvSource, string, error) {
	has := false
	for _, c := range p.Cols {
		if algebra.HasSublink(c.E) {
			has = true
			break
		}
	}
	if !has {
		child, prov, err := rw.rewrite(p.Child)
		if err != nil {
			return nil, nil, "", err
		}
		cols := append([]algebra.ProjExpr{}, p.Cols...)
		cols = append(cols, provCols(prov)...)
		return &algebra.Project{Child: child, Cols: cols, Distinct: p.Distinct}, prov, "R2/project", nil
	}
	switch rw.strategy {
	case Gen:
		plus, prov, err := rw.genProject(p)
		return plus, prov, "G2/project", err
	case Left:
		plus, prov, err := rw.leftProject(p)
		return plus, prov, "L2/project", err
	case Move:
		plus, prov, err := rw.moveProject(p)
		return plus, prov, "T2/project", err
	case Unn, UnnX:
		return nil, nil, "", fmt.Errorf("%w: %v has no rewrite rule for sublinks in projections", ErrNotApplicable, rw.strategy)
	case Auto:
		return rw.autoProject(p)
	default:
		return nil, nil, "", fmt.Errorf("rewrite: unknown strategy %v", rw.strategy)
	}
}

// rewriteCross is rule R4: (T1 × T2)+ = T1+ × T2+ with concatenated
// provenance attribute lists.
func (rw *rewriter) rewriteCross(c *algebra.Cross) (algebra.Op, []ProvSource, error) {
	l, lp, err := rw.rewrite(c.L)
	if err != nil {
		return nil, nil, err
	}
	r, rp, err := rw.rewrite(c.R)
	if err != nil {
		return nil, nil, err
	}
	// Schema order is (T1, P(T1), T2, P(T2)); re-project to the invariant
	// order (T1, T2, P(T1), P(T2)).
	plan := reorder(&algebra.Cross{L: l, R: r}, c.Schema(), append(lp, rp...))
	return plan, append(lp, rp...), nil
}

// rewriteJoin extends R3/R4 to inner joins: (T1 ⋈C T2)+ = T1+ ⋈C T2+. Join
// conditions containing sublinks are normalized to a selection over a cross
// product first, so the sublink strategies apply uniformly.
func (rw *rewriter) rewriteJoin(j *algebra.Join) (algebra.Op, []ProvSource, error) {
	if algebra.HasSublink(j.Cond) {
		norm := &algebra.Select{Child: &algebra.Cross{L: j.L, R: j.R}, Cond: j.Cond}
		return rw.rewrite(norm)
	}
	l, lp, err := rw.rewrite(j.L)
	if err != nil {
		return nil, nil, err
	}
	r, rp, err := rw.rewrite(j.R)
	if err != nil {
		return nil, nil, err
	}
	plan := reorder(&algebra.Join{L: l, R: r, Cond: j.Cond}, j.Schema(), append(lp, rp...))
	return plan, append(lp, rp...), nil
}

// rewriteLeftJoin extends the rules to left outer joins: unmatched left
// tuples carry NULL provenance for the right input, exactly as the executor
// pads their data attributes.
func (rw *rewriter) rewriteLeftJoin(j *algebra.LeftJoin) (algebra.Op, []ProvSource, error) {
	if algebra.HasSublink(j.Cond) {
		return nil, nil, fmt.Errorf("rewrite: sublinks in outer join conditions are not supported")
	}
	l, lp, err := rw.rewrite(j.L)
	if err != nil {
		return nil, nil, err
	}
	r, rp, err := rw.rewrite(j.R)
	if err != nil {
		return nil, nil, err
	}
	plan := reorder(&algebra.LeftJoin{L: l, R: r, Cond: j.Cond}, j.Schema(), append(lp, rp...))
	return plan, append(lp, rp...), nil
}

// rewriteAggregate is rule R5:
//
//	(α_{G,agg}(T))+ = Π_{G,agg,P(T+)}(α_{G,agg}(T) ⟕_{G =n Ĝ} Π_{G→Ĝ,P(T+)}(T+))
//
// The paper writes an inner join on G = Ĝ; we use a left outer join with
// null-aware equality so that (a) groups keyed by NULL join their input
// tuples and (b) the single result tuple of an aggregation over an empty
// input (no GROUP BY) survives with NULL provenance.
func (rw *rewriter) rewriteAggregate(a *algebra.Aggregate) (algebra.Op, []ProvSource, error) {
	child, prov, err := rw.rewrite(a.Child)
	if err != nil {
		return nil, nil, err
	}
	agg := &algebra.Aggregate{Child: a.Child, Group: a.Group, Aggs: a.Aggs}

	// Right side: Π_{G→Ĝ, P(T+)}(T+).
	rightCols := make([]algebra.ProjExpr, 0, len(a.Group)+len(prov))
	hatNames := make([]string, len(a.Group))
	for i, g := range a.Group {
		hatNames[i] = rw.freshName("g")
		rightCols = append(rightCols, algebra.Col(g.E, hatNames[i]))
	}
	rightCols = append(rightCols, provCols(prov)...)
	right := algebra.NewProject(child, rightCols...)

	// Join condition: ∧ G_i =n Ĝ_i (empty for global aggregation → true).
	conds := make([]algebra.Expr, len(a.Group))
	for i, g := range a.Group {
		conds[i] = algebra.NullEq{L: algebra.Attr(g.As), R: algebra.Attr(hatNames[i])}
	}
	join := &algebra.LeftJoin{L: agg, R: right, Cond: algebra.Conj(conds...)}

	// Outer projection: the aggregation schema followed by P(T+).
	outCols := make([]algebra.ProjExpr, 0, agg.Schema().Len()+len(prov))
	for _, at := range agg.Schema().Attrs {
		outCols = append(outCols, algebra.KeepAttr(at))
	}
	outCols = append(outCols, provCols(prov)...)
	return algebra.NewProject(join, outCols...), prov, nil
}

// rewriteSetOp extends the rules to set operations, following the Perm
// system (the EDBT paper's Figure 4 covers only the operators its examples
// need):
//
//   - union: both sides are padded with NULLs for the other side's
//     provenance attributes and unioned;
//   - intersection: every L tuple and R tuple equal (under =n) to a result
//     tuple contributes;
//   - difference: the result tuple's derivations in L contribute, and — per
//     Definition 1's maximality — all of R does (removing any single R tuple
//     still leaves the result non-empty).
func (rw *rewriter) rewriteSetOp(s *algebra.SetOp) (algebra.Op, []ProvSource, error) {
	l, lp, err := rw.rewrite(s.L)
	if err != nil {
		return nil, nil, err
	}
	r, rp, err := rw.rewrite(s.R)
	if err != nil {
		return nil, nil, err
	}
	switch s.Kind {
	case algebra.Union:
		return rw.rewriteUnion(s, l, lp, r, rp)
	case algebra.Intersect:
		return rw.rewriteIntersect(s, l, lp, r, rp)
	case algebra.Except:
		return rw.rewriteExcept(s, l, lp, r, rp)
	default:
		return nil, nil, fmt.Errorf("rewrite: unknown set operation %v", s.Kind)
	}
}

func (rw *rewriter) rewriteUnion(s *algebra.SetOp, l algebra.Op, lp []ProvSource, r algebra.Op, rp []ProvSource) (algebra.Op, []ProvSource, error) {
	outSch := s.Schema()
	// Left side: original attrs, P(L), NULLs for P(R).
	leftCols := make([]algebra.ProjExpr, 0)
	for _, a := range outSch.Attrs {
		leftCols = append(leftCols, algebra.KeepAttr(a))
	}
	leftCols = append(leftCols, provCols(lp)...)
	for _, p := range rp {
		for _, a := range p.Attrs {
			leftCols = append(leftCols, algebra.Col(algebra.NullConst(), a.Name))
		}
	}
	// Right side: R attrs emitted under the left names, NULLs for P(L), P(R).
	rightCols := make([]algebra.ProjExpr, 0)
	for i, a := range outSch.Attrs {
		ra := s.R.Schema().Attrs[i]
		rightCols = append(rightCols, algebra.ProjExpr{E: algebra.QAttr(ra.Qual, ra.Name), As: a.Name, Qual: a.Qual})
	}
	for _, p := range lp {
		for _, a := range p.Attrs {
			rightCols = append(rightCols, algebra.Col(algebra.NullConst(), a.Name))
		}
	}
	rightCols = append(rightCols, provCols(rp)...)
	plan := &algebra.SetOp{
		Kind: algebra.Union,
		Bag:  s.Bag,
		L:    algebra.NewProject(l, leftCols...),
		R:    algebra.NewProject(r, rightCols...),
	}
	return plan, append(lp, rp...), nil
}

func (rw *rewriter) rewriteIntersect(s *algebra.SetOp, l algebra.Op, lp []ProvSource, r algebra.Op, rp []ProvSource) (algebra.Op, []ProvSource, error) {
	core := &algebra.SetOp{Kind: algebra.Intersect, Bag: s.Bag, L: s.L, R: s.R}
	j1, err := rw.joinOnEqualTuple(core, s.Schema(), l, s.L.Schema(), lp)
	if err != nil {
		return nil, nil, err
	}
	j2, err := rw.joinOnEqualTuple(j1, s.Schema(), r, s.R.Schema(), rp)
	if err != nil {
		return nil, nil, err
	}
	outCols := make([]algebra.ProjExpr, 0)
	for _, a := range s.Schema().Attrs {
		outCols = append(outCols, algebra.KeepAttr(a))
	}
	outCols = append(outCols, provCols(lp)...)
	outCols = append(outCols, provCols(rp)...)
	return algebra.NewProject(j2, outCols...), append(lp, rp...), nil
}

func (rw *rewriter) rewriteExcept(s *algebra.SetOp, l algebra.Op, lp []ProvSource, r algebra.Op, rp []ProvSource) (algebra.Op, []ProvSource, error) {
	core := &algebra.SetOp{Kind: algebra.Except, Bag: s.Bag, L: s.L, R: s.R}
	j1, err := rw.joinOnEqualTuple(core, s.Schema(), l, s.L.Schema(), lp)
	if err != nil {
		return nil, nil, err
	}
	// All of R contributes to every result tuple; keep only P(R) and attach
	// it with a left outer join so an empty R yields NULL provenance.
	rProv := algebra.NewProject(r, provCols(rp)...)
	j2 := &algebra.LeftJoin{L: j1, R: rProv, Cond: algebra.BoolConst(true)}
	outCols := make([]algebra.ProjExpr, 0)
	for _, a := range s.Schema().Attrs {
		outCols = append(outCols, algebra.KeepAttr(a))
	}
	outCols = append(outCols, provCols(lp)...)
	outCols = append(outCols, provCols(rp)...)
	return algebra.NewProject(j2, outCols...), append(lp, rp...), nil
}

// joinOnEqualTuple joins base (whose first attributes are resultSch) with a
// rewritten input side, matching result tuples to their derivations under
// per-attribute =n. The side's data attributes are renamed to fresh names to
// avoid collisions; only its provenance attributes remain visible.
func (rw *rewriter) joinOnEqualTuple(base algebra.Op, resultSch schema.Schema, side algebra.Op, sideSch schema.Schema, sideProv []ProvSource) (algebra.Op, error) {
	if resultSch.Len() != sideSch.Len() {
		return nil, fmt.Errorf("rewrite: set operation width mismatch: %s vs %s", resultSch, sideSch)
	}
	cols := make([]algebra.ProjExpr, 0, sideSch.Len()+len(sideProv))
	freshNames := make([]string, sideSch.Len())
	for i, a := range sideSch.Attrs {
		freshNames[i] = rw.freshName("eq")
		cols = append(cols, algebra.Col(algebra.QAttr(a.Qual, a.Name), freshNames[i]))
	}
	cols = append(cols, provCols(sideProv)...)
	wrapped := algebra.NewProject(side, cols...)
	conds := make([]algebra.Expr, resultSch.Len())
	for i, a := range resultSch.Attrs {
		conds[i] = algebra.NullEq{L: algebra.QAttr(a.Qual, a.Name), R: algebra.Attr(freshNames[i])}
	}
	return &algebra.Join{L: base, R: wrapped, Cond: algebra.Conj(conds...)}, nil
}

// provCols builds pass-through projection columns for provenance attributes.
func provCols(prov []ProvSource) []algebra.ProjExpr {
	var out []algebra.ProjExpr
	for _, p := range prov {
		for _, a := range p.Attrs {
			out = append(out, algebra.KeepAttr(a))
		}
	}
	return out
}

// reorder projects a plan whose schema interleaves data and provenance
// attributes back to the invariant layout: original schema first, then all
// provenance attributes.
func reorder(plan algebra.Op, orig schema.Schema, prov []ProvSource) algebra.Op {
	cols := make([]algebra.ProjExpr, 0, orig.Len())
	for _, a := range orig.Attrs {
		cols = append(cols, algebra.KeepAttr(a))
	}
	cols = append(cols, provCols(prov)...)
	return algebra.NewProject(plan, cols...)
}

// cmpOrTrue returns the comparison test "A op t" of an ANY/ALL sublink; for
// EXISTS and scalar sublinks (no comparison) it returns true, matching
// Jsub = true in the paper.
func cmpOrTrue(s algebra.Sublink, res algebra.Expr) algebra.Expr {
	switch s.Kind {
	case algebra.AnySublink, algebra.AllSublink:
		return algebra.Cmp{Op: s.Op, L: s.Test, R: res}
	default:
		return algebra.BoolConst(true)
	}
}

// jsub builds the influence-role condition of §3.3 with csub standing for
// the sublink's (possibly precomputed) boolean value and csubPrime for the
// comparison C′sub = A op t:
//
//	ANY:            Jsub = C′sub ∨ ¬Csub
//	ALL:            Jsub = Csub ∨ ¬C′sub
//	EXISTS, scalar: Jsub = true
func jsub(kind algebra.SublinkKind, csub, csubPrime algebra.Expr) algebra.Expr {
	switch kind {
	case algebra.AnySublink:
		return algebra.Or{L: csubPrime, R: algebra.Not{E: csub}}
	case algebra.AllSublink:
		return algebra.Or{L: csub, R: algebra.Not{E: csubPrime}}
	default:
		return algebra.BoolConst(true)
	}
}
