package provenance

import (
	"fmt"

	"perm/internal/algebra"
	"perm/internal/catalog"
	"perm/internal/rel"
	"perm/internal/schema"
)

// Checker verifies computed provenance against the raw conditions of
// Definition 1 / Definition 2 by exhaustive substitution: it replaces each
// sublink query with literal subsets and re-evaluates the operator. It is
// exponential in spirit (maximality probes every excluded tuple) and meant
// for tiny relations in tests.
type Checker struct {
	cat *catalog.Catalog
	def Definition
	o   *Oracle
}

// NewChecker returns a checker under the given definition.
func NewChecker(cat *catalog.Catalog, def Definition) *Checker {
	return &Checker{cat: cat, def: def, o: NewOracle(cat, def)}
}

// CheckSelection verifies that tp is the provenance of its result tuple for
// sel = σ_C(Scan(T)) under the checker's definition:
//
//	condition 1: σ with every Tsub_i replaced by Tsub_i* still produces t;
//	condition 2: each single tuple of each Tsub_i* keeps producing t;
//	condition 3 (Definition 2 only): each single tuple of Tsub_i* gives the
//	            sublink the same value as the full Tsub_i;
//	maximality:  adding any excluded Tsub_i tuple to Tsub_i* violates one of
//	            the applicable conditions.
func (c *Checker) CheckSelection(sel *algebra.Select, tp TupleProvenance) error {
	sc, ok := sel.Child.(*algebra.Scan)
	if !ok {
		return fmt.Errorf("provenance: checker supports selections over base relations, got %T", sel.Child)
	}
	in, err := c.o.ev.Eval(sc)
	if err != nil {
		return err
	}
	sublinks := algebra.CollectSublinks(sel.Cond)
	t := tp.Witness

	// Materialize each sublink's full result for the binding t and fetch
	// the computed star sets.
	full := make([]*rel.Relation, len(sublinks))
	star := make([]*rel.Relation, len(sublinks))
	for i, sl := range sublinks {
		full[i], err = c.o.sublinkResult(sl, in.Schema, t)
		if err != nil {
			return err
		}
		s, ok := tp.Sources[subKey(i)]
		if !ok {
			return fmt.Errorf("provenance: missing source %s in computed provenance", subKey(i))
		}
		star[i] = s
	}

	condValue := func(sets []*rel.Relation) (bool, error) {
		cond := substituteSublinkSets(sel.Cond, sublinks, sets)
		return c.o.evalCondition(cond, in.Schema, t)
	}
	sublinkValue := func(i int, set *rel.Relation) (bool, error) {
		sl := sublinks[i]
		sl.Query = valuesOf(set)
		return c.o.evalCondition(sl, in.Schema, t)
	}

	// verify checks conditions 1, 2 and (Definition 2) 3 for one candidate
	// tuple of subsets. Maximality probes re-run it on augmented sets:
	// Definition 1's maximality is about the tuple of subsets *jointly* —
	// growing one set may break condition 2 for tuples of another (that
	// joint constraint is exactly what makes the §2.5 example ambiguous).
	verify := func(sets []*rel.Relation) error {
		keep, err := condValue(sets)
		if err != nil {
			return err
		}
		if !keep {
			return fmt.Errorf("condition 1 violated: σ over starred inputs drops %s", t)
		}
		for i := range sublinks {
			fullVal, err := sublinkValue(i, full[i])
			if err != nil {
				return err
			}
			err = sets[i].Each(func(st rel.Tuple, n int) error {
				single := rel.FromTuples(sets[i].Schema, st)
				probe := append([]*rel.Relation{}, sets...)
				probe[i] = single
				keep, err := condValue(probe)
				if err != nil {
					return err
				}
				if !keep {
					return fmt.Errorf("condition 2 violated: tuple %s of %s does not reproduce %s", st, subKey(i), t)
				}
				if c.def == Definition2 {
					v, err := sublinkValue(i, single)
					if err != nil {
						return err
					}
					if v != fullVal {
						return fmt.Errorf("condition 3 violated: tuple %s flips sublink %d from %v to %v", st, i, fullVal, v)
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
		}
		return nil
	}

	if err := verify(star); err != nil {
		return fmt.Errorf("provenance: %w", err)
	}

	// Maximality: adding any excluded tuple must make verify fail.
	for i := range sublinks {
		excluded := rel.New(full[i].Schema)
		in := star[i].Group()
		_ = full[i].Distinct().Each(func(st rel.Tuple, n int) error {
			if in.Count(st) == 0 {
				excluded.Add(st, 1)
			}
			return nil
		})
		err = excluded.Each(func(st rel.Tuple, n int) error {
			augmented := star[i].Clone(1)
			augmented.Add(st, 1)
			sets := append([]*rel.Relation{}, star...)
			sets[i] = augmented
			if verify(sets) == nil {
				return fmt.Errorf("provenance: not maximal: tuple %s of sublink %d could be added to %s's provenance", st, i, t)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// substituteSublinkSets replaces each collected sublink's query with a
// literal Values relation, producing the condition C(Tsub1*, …, Tsubn*).
func substituteSublinkSets(cond algebra.Expr, sublinks []algebra.Sublink, sets []*rel.Relation) algebra.Expr {
	return algebra.MapExpr(cond, func(x algebra.Expr) algebra.Expr {
		sl, ok := x.(algebra.Sublink)
		if !ok {
			return x
		}
		for i := range sublinks {
			if algebra.ExprEqual(sl, sublinks[i]) {
				sl.Query = valuesOf(sets[i])
				return sl
			}
		}
		return x
	})
}

// valuesOf converts a materialized relation into a Values literal.
func valuesOf(r *rel.Relation) *algebra.Values {
	var rows []algebra.Row
	_ = r.Each(func(t rel.Tuple, n int) error {
		for ; n > 0; n-- {
			rows = append(rows, constRow(t))
		}
		return nil
	})
	return &algebra.Values{Sch: unqualified(r.Schema), Rows: rows}
}

// unqualified strips qualifiers so literal relations cannot capture
// references intended for enclosing scopes.
func unqualified(s schema.Schema) schema.Schema {
	attrs := make([]schema.Attr, len(s.Attrs))
	for i, a := range s.Attrs {
		attrs[i] = schema.Attr{Name: a.Name}
	}
	return schema.Schema{Attrs: attrs}
}
