package rewrite

import (
	"fmt"

	"perm/internal/algebra"
	"perm/internal/schema"
	"perm/internal/types"
)

// The UnnX strategy is this reproduction's implementation of the paper's
// future-work direction (§3.6/§4.2.2: "investigate the applicability and
// impact of other de-correlation and un-nesting techniques for provenance
// computation"). It generalizes the Unn rules from {EXISTS, = ANY} to every
// sublink shape whose Definition-2 provenance is expressible as a join,
// still requiring uncorrelated sublink queries and bare (possibly negated)
// sublink conjuncts:
//
//	X1  σ_{EXISTS Tsub}(T)         → T+ × Tsub+                  (U1)
//	X2  σ_{A op ANY Tsub}(T)       → T+ ⋈_{A op t} Tsub+         (U2 generalized
//	                                 to any comparison: a satisfied ANY is
//	                                 reqtrue, so Tsub* = Tsub^true)
//	X3  σ_{¬(A op ALL Tsub)}(T)    → T+ ⋈_{¬(A op t)} Tsub+      (a failed ALL
//	                                 is reqfalse, so Tsub* = Tsub^false)
//	X4  σ_{A op ALL Tsub}(T),
//	    σ_{¬EXISTS Tsub}(T),
//	    σ_{¬(A op ANY Tsub)}(T),
//	    scalar-sublink conjuncts   → σ_{conjunct}(T+) ⟕_{true} Π_{P}(Tsub+)
//	                                 (the provenance is all of Tsub — or NULL
//	                                 when Tsub is empty — so a constant-true
//	                                 left outer join attaches it)
//	X5  σ_{EXISTS Tsub[o]}(T),
//	    Tsub = σ_{rest ∧ o = i}(X) → T+ ⋈_{o = î} Tsub′+ where
//	                                 Tsub′ = Π_{…, i→î}(σ_{rest}(X)):
//	                                 correlated EXISTS whose correlation is a
//	                                 conjunction of equalities between outer
//	                                 attributes o and inner expressions i in
//	                                 the sublink's top-level WHERE — the
//	                                 canonical unnestable pattern — turns
//	                                 into an equi-join on the lifted
//	                                 correlation, with the inner comparands
//	                                 exposed through the sublink projection.
//	                                 The witnesses of a satisfied EXISTS
//	                                 under a binding are exactly the inner
//	                                 rows matching the binding, which is
//	                                 exactly what the join pairs the outer
//	                                 tuple with.
//
// X4's left outer join replaces the Left strategy's disjunctive Jsub with a
// trivially true condition, and X2/X3/X5 produce plain theta-joins (hash
// joins for equality); the ablation benchmarks compare UnnX against the
// paper's strategies on the workloads where only Gen/Left/Move applied.
func (rw *rewriter) unnxSelect(s *algebra.Select) (algebra.Op, []ProvSource, error) {
	conjuncts := flattenAnd(s.Cond)
	child, childProv, err := rw.rewrite(s.Child)
	if err != nil {
		return nil, nil, err
	}
	plan := algebra.Op(child)
	var subProvAll []ProvSource

	attach := func(q algebra.Op) error {
		subPlus, subProv, err := rw.rewrite(q)
		if err != nil {
			return err
		}
		provOnly := algebra.NewProject(subPlus, provCols(subProv)...)
		plan = &algebra.LeftJoin{L: plan, R: provOnly, Cond: algebra.BoolConst(true)}
		subProvAll = append(subProvAll, subProv...)
		return nil
	}
	join := func(q algebra.Op, mk func(res algebra.Expr) algebra.Expr) error {
		wrapped, resRef, subProv, err := rw.wrapSublinkQuery(q)
		if err != nil {
			return err
		}
		plan = &algebra.Join{L: plan, R: wrapped, Cond: mk(resRef)}
		subProvAll = append(subProvAll, subProv...)
		return nil
	}

	for _, conj := range conjuncts {
		if !algebra.HasSublink(conj) {
			// Filter eagerly: every conjunct of the original selection
			// references only the selection's input (or enclosing scopes),
			// which stays available throughout the join chain.
			plan = &algebra.Select{Child: plan, Cond: conj}
			continue
		}
		pat, ok := unnxPattern(conj)
		if !ok {
			return nil, nil, fmt.Errorf("%w: UnnX requires bare or negated sublink conjuncts (or scalar-only expressions), got %s", ErrNotApplicable, conj)
		}
		for _, sl := range pat.sublinks {
			if (pat.kind == xCross) && sl.Kind == algebra.ExistsSublink {
				continue // X5 may decorrelate; checked below
			}
			if fv := algebra.FreeVars(sl.Query); len(fv) > 0 {
				return nil, nil, fmt.Errorf("%w: UnnX decorrelates only EXISTS sublinks with top-level equality correlation; the %s sublink %s stays correlated (free: %v)", ErrNotApplicable, sl.Kind, sl, fv)
			}
		}
		switch pat.kind {
		case xCross: // X1 / X5
			sl := pat.sublinks[0]
			if algebra.IsCorrelated(sl.Query) {
				wrapped, cond, subProv, err := rw.unnxDecorrelateExists(sl.Query, s.Child.Schema())
				if err != nil {
					return nil, nil, err
				}
				plan = &algebra.Join{L: plan, R: wrapped, Cond: cond}
				subProvAll = append(subProvAll, subProv...)
				break
			}
			wrapped, _, subProv, err := rw.wrapSublinkQuery(sl.Query)
			if err != nil {
				return nil, nil, err
			}
			plan = &algebra.Cross{L: plan, R: wrapped}
			subProvAll = append(subProvAll, subProv...)
		case xJoin: // X2
			sl := pat.sublinks[0]
			if err := join(sl.Query, func(res algebra.Expr) algebra.Expr {
				return algebra.Cmp{Op: sl.Op, L: sl.Test, R: res}
			}); err != nil {
				return nil, nil, err
			}
		case xAntiJoin: // X3
			sl := pat.sublinks[0]
			if err := join(sl.Query, func(res algebra.Expr) algebra.Expr {
				return algebra.Cmp{Op: sl.Op.Negate(), L: sl.Test, R: res}
			}); err != nil {
				return nil, nil, err
			}
		case xAttach: // X4
			// Filter first (one sublink evaluation per input tuple), then
			// attach the sublink's full provenance to the survivors.
			plan = &algebra.Select{Child: plan, Cond: conj}
			for _, sl := range pat.sublinks {
				if err := attach(sl.Query); err != nil {
					return nil, nil, err
				}
			}
		}
	}
	out := projectResult(plan, s.Schema(), childProv, subProvAll)
	return out, append(childProv, subProvAll...), nil
}

type unnxKind uint8

const (
	xCross unnxKind = iota
	xJoin
	xAntiJoin
	xAttach
)

type unnxMatch struct {
	kind     unnxKind
	sublinks []algebra.Sublink
}

// unnxPattern classifies one conjunct for the UnnX rules.
func unnxPattern(conj algebra.Expr) (unnxMatch, bool) {
	switch e := conj.(type) {
	case algebra.Sublink:
		switch e.Kind {
		case algebra.ExistsSublink:
			return unnxMatch{kind: xCross, sublinks: []algebra.Sublink{e}}, true
		case algebra.AnySublink:
			return unnxMatch{kind: xJoin, sublinks: []algebra.Sublink{e}}, true
		case algebra.AllSublink:
			// A satisfied ALL is reqtrue: provenance is all of Tsub.
			return unnxMatch{kind: xAttach, sublinks: []algebra.Sublink{e}}, true
		}
	case algebra.Not:
		if sl, ok := e.E.(algebra.Sublink); ok {
			switch sl.Kind {
			case algebra.AllSublink:
				return unnxMatch{kind: xAntiJoin, sublinks: []algebra.Sublink{sl}}, true
			case algebra.ExistsSublink, algebra.AnySublink:
				// A failed EXISTS/ANY is reqfalse: provenance is all of
				// Tsub (NULL when empty).
				return unnxMatch{kind: xAttach, sublinks: []algebra.Sublink{sl}}, true
			}
		}
	}
	// Arbitrary expressions qualify when every embedded sublink is scalar:
	// a scalar sublink's provenance is all of Tsub regardless of the
	// expression around it.
	sublinks := algebra.CollectSublinks(conj)
	if len(sublinks) == 0 {
		return unnxMatch{}, false
	}
	for _, sl := range sublinks {
		if sl.Kind != algebra.ScalarSublink {
			return unnxMatch{}, false
		}
	}
	return unnxMatch{kind: xAttach, sublinks: sublinks}, true
}

// unnxDecorrelateExists is rule X5: it splits the correlation out of the
// sublink's top-level selection, exposes the inner comparands through the
// sublink projection, and hands the caller the rewritten, now-uncorrelated
// sublink plan plus the equi-join condition that re-applies the correlation
// per outer tuple. outerSch is the enclosing selection's input schema; every
// correlated reference must resolve there (a reference escaping to an even
// higher scope would leave the join correlated).
func (rw *rewriter) unnxDecorrelateExists(q algebra.Op, outerSch schema.Schema) (wrapped algebra.Op, cond algebra.Expr, prov []ProvSource, err error) {
	corrs, qPrime, exposed, err := rw.splitExistsCorrelation(q)
	if err != nil {
		return nil, nil, nil, err
	}
	for _, c := range corrs {
		if idx, amb := outerSch.Lookup(c.outer.Qual, c.outer.Name); idx < 0 || amb {
			return nil, nil, nil, fmt.Errorf("%w: UnnX cannot decorrelate EXISTS: correlated reference %s does not resolve in the enclosing selection's input %s", ErrNotApplicable, c.outer, outerSch)
		}
	}
	subPlus, subProv, err := rw.rewrite(qPrime)
	if err != nil {
		return nil, nil, nil, err
	}
	// Rename every data attribute fresh, as wrapSublinkQuery does, keeping
	// track of where the exposed correlation columns land.
	cols := make([]algebra.ProjExpr, 0, qPrime.Schema().Len())
	freshFor := map[string]string{}
	for _, a := range qPrime.Schema().Attrs {
		fresh := rw.freshName("sub")
		cols = append(cols, algebra.Col(algebra.QAttr(a.Qual, a.Name), fresh))
		freshFor[a.Name] = fresh
	}
	cols = append(cols, provCols(subProv)...)
	conds := make([]algebra.Expr, len(corrs))
	for i, c := range corrs {
		conds[i] = algebra.Cmp{Op: types.CmpEq, L: c.outer, R: algebra.Attr(freshFor[exposed[i]])}
	}
	return algebra.NewProject(subPlus, cols...), algebra.Conj(conds...), subProv, nil
}

// corrEq is one lifted correlation predicate: outer = inner.
type corrEq struct {
	outer algebra.AttrRef
	inner algebra.Expr
}

// splitExistsCorrelation analyses a correlated EXISTS sublink query of the
// shape [Π](σ_{rest ∧ o1 = i1 ∧ …}(X)) and rebuilds it without the
// correlation conjuncts, the inner comparands exposed under fresh names.
// It fails with a precise ErrNotApplicable reason when the correlation does
// not fit the pattern.
func (rw *rewriter) splitExistsCorrelation(q algebra.Op) (corrs []corrEq, qPrime *algebra.Project, exposed []string, err error) {
	var proj *algebra.Project
	sel, ok := q.(*algebra.Select)
	if !ok {
		if p, isProj := q.(*algebra.Project); isProj {
			if s, isSel := p.Child.(*algebra.Select); isSel {
				proj, sel = p, s
				ok = true
			}
		}
	}
	if !ok {
		return nil, nil, nil, fmt.Errorf("%w: UnnX decorrelates EXISTS only when the correlation sits in the sublink's top-level WHERE clause (free: %v)", ErrNotApplicable, algebra.FreeVars(q))
	}
	innerSch := sel.Child.Schema()
	var rest []algebra.Expr
	for _, cj := range flattenAnd(sel.Cond) {
		if cmp, isCmp := cj.(algebra.Cmp); isCmp && cmp.Op == types.CmpEq && !algebra.HasSublink(cj) {
			if ref, isRef := cmp.L.(algebra.AttrRef); isRef && refEscapes(ref, innerSch) && innerOnly(cmp.R, innerSch) {
				corrs = append(corrs, corrEq{outer: ref, inner: cmp.R})
				continue
			}
			if ref, isRef := cmp.R.(algebra.AttrRef); isRef && refEscapes(ref, innerSch) && innerOnly(cmp.L, innerSch) {
				corrs = append(corrs, corrEq{outer: ref, inner: cmp.L})
				continue
			}
		}
		rest = append(rest, cj)
	}
	if len(corrs) == 0 {
		return nil, nil, nil, fmt.Errorf("%w: UnnX cannot decorrelate EXISTS: no top-level equality conjunct pairs an outer attribute with an inner expression (free: %v)", ErrNotApplicable, algebra.FreeVars(q))
	}
	inner := sel.Child
	if len(rest) > 0 {
		inner = &algebra.Select{Child: inner, Cond: algebra.Conj(rest...)}
	}
	var cols []algebra.ProjExpr
	distinct := false
	if proj != nil {
		cols = append(cols, proj.Cols...)
		distinct = proj.Distinct
	} else {
		for _, a := range sel.Schema().Attrs {
			cols = append(cols, algebra.KeepAttr(a))
		}
	}
	exposed = make([]string, len(corrs))
	for i, c := range corrs {
		exposed[i] = rw.freshName("corr")
		cols = append(cols, algebra.Col(c.inner, exposed[i]))
	}
	qPrime = &algebra.Project{Child: inner, Cols: cols, Distinct: distinct}
	if fv := algebra.FreeVars(qPrime); len(fv) > 0 {
		return nil, nil, nil, fmt.Errorf("%w: UnnX cannot decorrelate EXISTS: correlation is not confined to top-level equality conjuncts (still free after lifting: %v)", ErrNotApplicable, fv)
	}
	return corrs, qPrime, exposed, nil
}

// refEscapes reports whether an attribute reference fails to resolve in the
// sublink's own input — i.e. it is correlated to an enclosing scope.
func refEscapes(ref algebra.AttrRef, sch schema.Schema) bool {
	idx, amb := sch.Lookup(ref.Qual, ref.Name)
	return idx < 0 && !amb
}

// innerOnly reports whether every attribute reference of e resolves
// (uniquely) in the sublink's input schema and e contains no sublinks.
func innerOnly(e algebra.Expr, sch schema.Schema) bool {
	if algebra.HasSublink(e) {
		return false
	}
	ok := true
	algebra.WalkExpr(e, func(x algebra.Expr) bool {
		if ref, isRef := x.(algebra.AttrRef); isRef {
			if idx, amb := sch.Lookup(ref.Qual, ref.Name); idx < 0 || amb {
				ok = false
			}
		}
		return ok
	})
	return ok
}

// unnxApplicable reports whether unnxSelect would succeed, for Auto's
// dispatch.
func unnxApplicable(cond algebra.Expr) bool {
	for _, conj := range flattenAnd(cond) {
		if !algebra.HasSublink(conj) {
			continue
		}
		pat, ok := unnxPattern(conj)
		if !ok {
			return false
		}
		for _, sl := range pat.sublinks {
			if !algebra.IsCorrelated(sl.Query) {
				continue
			}
			if pat.kind != xCross || sl.Kind != algebra.ExistsSublink {
				return false
			}
			// X5 candidate: probe the correlation analysis (the outer
			// schema check happens in the rewrite proper).
			probe := &rewriter{strategy: UnnX, scanSeq: map[string]int{}}
			if _, _, _, err := probe.splitExistsCorrelation(sl.Query); err != nil {
				return false
			}
		}
	}
	return true
}
