package algebra

import (
	"slices"
	"strings"

	"perm/internal/schema"
	"perm/internal/types"
)

// Compact returns a copy of the plan, equal node for node, built to be kept
// for long and beside many others:
//
//   - every name string — attribute, qualifier, alias, prov_* column — is
//     stored once, and none shares memory with the statement text the plan
//     was compiled from (the lexer slices identifiers and literals out of
//     it); only the attribute names of scan schemas, which are the
//     catalog's, stay the strings they are;
//   - every distinct attribute reference, named or bound, is boxed once —
//     a bound one to a low slot once per process (BoxRef) — and every
//     distinct scan is built once; a scan whose schema is one of
//     schemas — the catalog's schemas of the relations the plan names — uses
//     the catalog's copy.
//
// Each plan is compacted on its own: it shares no memory with another plan
// but the catalog's schemas and BoxRef's boxes, so a pattern variant of a
// cached statement costs what a plan does. Only the same computation is
// ever the same memory: a/2 and a/2.0 are equal the way ExprEqual and SQL
// compare constants, and stay two expressions here.
//
// A provenance rewrite repeats each witness column in a projection per plan
// level, so the column lists are most of such a plan's size. Subtrees shared
// in op stay shared in the copy.
func Compact(op Op, schemas []schema.Schema) Op {
	c := &compactor{
		pool:  schemas,
		strs:  map[string]string{},
		refs:  map[AttrRef]Expr{},
		bound: map[Ref]Expr{},
		scans: map[[2]string]*Scan{},
		ops:   map[Op]Op{},
	}
	return c.op(op)
}

type compactor struct {
	pool  []schema.Schema
	strs  map[string]string
	refs  map[AttrRef]Expr
	bound map[Ref]Expr
	scans map[[2]string]*Scan // by name and alias
	ops   map[Op]Op           // done already, for subtrees shared in the input
}

// str returns the plan's one copy of s.
func (c *compactor) str(s string) string {
	if kept, ok := c.strs[s]; ok || s == "" {
		return kept
	}
	kept := strings.Clone(s)
	c.strs[kept] = kept
	return kept
}

// scanSchema compacts the schema of a scan. Its attribute names come from
// the catalog and outlive the plan: they are kept as they are, and are the
// copy every later mention of the name uses.
func (c *compactor) scanSchema(s schema.Schema) schema.Schema {
	for _, pooled := range c.pool {
		if slices.Equal(pooled.Attrs, s.Attrs) {
			return pooled
		}
	}
	attrs := make([]schema.Attr, len(s.Attrs))
	for i, a := range s.Attrs {
		if _, ok := c.strs[a.Name]; !ok {
			c.strs[a.Name] = a.Name
		}
		attrs[i] = schema.Attr{Qual: c.str(a.Qual), Name: c.str(a.Name)}
	}
	return schema.Schema{Attrs: attrs}
}

// expr compacts e.
func (c *compactor) expr(e Expr) Expr {
	return MapExpr(e, func(x Expr) Expr {
		switch v := x.(type) {
		case AttrRef:
			if ref, ok := c.refs[v]; ok {
				return ref
			}
			ref := Expr(AttrRef{Qual: c.str(v.Qual), Name: c.str(v.Name)})
			c.refs[v] = ref
			return ref
		case Ref:
			if ref, ok := c.bound[v]; ok {
				return ref
			}
			ref := BoxRef(v)
			c.bound[v] = ref
			return ref
		case Const:
			if v.Val.Kind() == types.KindString {
				x = StrConst(c.str(v.Val.Str()))
			}
		case Func:
			v.Name = c.str(v.Name)
			x = v
		case Sublink:
			v.Query = c.op(v.Query)
			x = v
		}
		return x
	})
}

// op compacts one operator.
func (c *compactor) op(op Op) Op {
	if done, ok := c.ops[op]; ok {
		return done
	}
	out := op
	switch o := op.(type) {
	case *Scan:
		// A scan is its name, alias and schema: one node per plan.
		key := [2]string{o.Name, o.Alias}
		s := c.scans[key]
		if s == nil || !slices.Equal(s.Sch.Attrs, o.Sch.Attrs) {
			s = &Scan{Name: c.str(o.Name), Alias: c.str(o.Alias), Sch: c.scanSchema(o.Sch)}
			c.scans[key] = s
		}
		out = s
	case *Values:
		n := &Values{Sch: schema.Schema{Attrs: make([]schema.Attr, len(o.Sch.Attrs))}, Rows: make([]Row, len(o.Rows))}
		for i, a := range o.Sch.Attrs {
			n.Sch.Attrs[i] = schema.Attr{Qual: c.str(a.Qual), Name: c.str(a.Name)}
		}
		for i, r := range o.Rows {
			n.Rows[i] = make(Row, len(r))
			for j, e := range r {
				n.Rows[i][j] = c.expr(e)
			}
		}
		out = n
	case *Select:
		out = &Select{Child: c.op(o.Child), Cond: c.expr(o.Cond)}
	case *Project:
		n := &Project{Child: c.op(o.Child), Cols: make([]ProjExpr, len(o.Cols)), Distinct: o.Distinct}
		for i, col := range o.Cols {
			n.Cols[i] = ProjExpr{E: c.expr(col.E), As: c.str(col.As), Qual: c.str(col.Qual)}
		}
		out = n
	case *Cross:
		out = &Cross{L: c.op(o.L), R: c.op(o.R)}
	case *Join:
		out = &Join{L: c.op(o.L), R: c.op(o.R), Cond: c.expr(o.Cond)}
	case *LeftJoin:
		out = &LeftJoin{L: c.op(o.L), R: c.op(o.R), Cond: c.expr(o.Cond)}
	case *Aggregate:
		n := &Aggregate{Child: c.op(o.Child), Group: make([]GroupExpr, len(o.Group)), Aggs: make([]AggExpr, len(o.Aggs))}
		for i, g := range o.Group {
			n.Group[i] = GroupExpr{E: c.expr(g.E), As: c.str(g.As), Qual: c.str(g.Qual)}
		}
		for i, a := range o.Aggs {
			n.Aggs[i] = AggExpr{Fn: a.Fn, Arg: c.expr(a.Arg), As: c.str(a.As), Distinct: a.Distinct}
		}
		out = n
	case *SetOp:
		out = &SetOp{Kind: o.Kind, Bag: o.Bag, L: c.op(o.L), R: c.op(o.R)}
	case *Order:
		n := &Order{Child: c.op(o.Child), Keys: make([]SortKey, len(o.Keys))}
		for i, k := range o.Keys {
			n.Keys[i] = SortKey{E: c.expr(k.E), Desc: k.Desc}
		}
		out = n
	case *Limit:
		out = &Limit{Child: c.op(o.Child), N: o.N, Offset: o.Offset}
	}
	c.ops[op] = out
	return out
}
