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
//     the catalog's copy;
//   - wherever the plan repeats like — an already compacted plan, nil for
//     none — it uses like's memory: a subtree equal to the subtree in the
//     same place is like's subtree, and an operator that differs only below
//     still shares like's expressions and column list. Plans of one
//     statement family (see sql.Lexed.Lift) differ in a parameter slot here
//     and there, so the second costs a path from the root, not a tree.
//
// The shape of op decides nothing: where like has another operator, or none,
// the copy is simply new. And only the same computation is ever the same
// memory: a/2 and a/2.0 are equal the way ExprEqual and SQL compare
// constants, and stay two expressions here.
//
// A provenance rewrite repeats each witness column in a projection per plan
// level, so the column lists are most of such a plan's size. Subtrees shared
// in op stay shared in the copy.
func Compact(op, like Op, schemas []schema.Schema) Op {
	c := &compactor{
		pool:   schemas,
		strs:   map[string]string{},
		refs:   map[AttrRef]Expr{},
		bound:  map[Ref]Expr{},
		scans:  map[[2]string]*Scan{},
		ops:    map[Op]Op{},
		likeOf: map[Op]Op{},
	}
	return c.op(op, like)
}

type compactor struct {
	pool  []schema.Schema
	strs  map[string]string
	refs  map[AttrRef]Expr
	bound map[Ref]Expr
	scans map[[2]string]*Scan // by name and alias
	ops   map[Op]Op           // done already, for subtrees shared in the input
	// likeOf maps the query of a sublink to the query of the sublink in the
	// same place of like's expression.
	likeOf map[Op]Op
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

// sublinkQueries lists the queries of the sublinks of e in the order MapExpr
// reaches them.
func sublinkQueries(e Expr) []Op {
	var out []Op
	MapExpr(e, func(x Expr) Expr {
		if s, ok := x.(Sublink); ok {
			out = append(out, s.Query)
		}
		return x
	})
	return out
}

// expr compacts e; like is the expression in the same place of the plan
// being shared with, or nil. When the two are equal the result is like
// itself, and shared reports it.
func (c *compactor) expr(e, like Expr) (out Expr, shared bool) {
	if e == nil {
		return nil, like == nil
	}
	if like != nil {
		if qs, ls := sublinkQueries(e), sublinkQueries(like); len(qs) == len(ls) {
			for i, q := range qs {
				c.likeOf[q] = ls[i]
			}
		}
	}
	out = MapExpr(e, func(x Expr) Expr {
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
			v.Query = c.op(v.Query, c.likeOf[v.Query])
			x = v
		}
		return x
	})
	if like != nil && ExprIdentical(out, like) {
		return like, true
	}
	return out, false
}

// likeAs returns like when it is a *T, an empty T otherwise: the empty
// operator's parts share with nothing, and it never equals a real one.
func likeAs[T any](like Op) *T {
	if l, ok := any(like).(*T); ok {
		return l
	}
	return new(T)
}

// at returns s[i], or the zero value past the end.
func at[E any](s []E, i int) (e E) {
	if i < len(s) {
		e = s[i]
	}
	return e
}

// op compacts one operator; like is the operator in the same place of the
// plan being shared with, or nil. Every case ends the same way: like itself
// when nothing differs, a new node on like's parts otherwise.
func (c *compactor) op(op, like Op) Op {
	if done, ok := c.ops[op]; ok {
		return done
	}
	out := op
	switch o := op.(type) {
	case *Scan:
		// A scan is its name, alias and schema: one node per plan, like's if
		// it is the same.
		key := [2]string{o.Name, o.Alias}
		s := c.scans[key]
		if s == nil {
			s = likeAs[Scan](like)
		}
		if s.Name != o.Name || s.Alias != o.Alias || !slices.Equal(s.Sch.Attrs, o.Sch.Attrs) {
			s = &Scan{Name: c.str(o.Name), Alias: c.str(o.Alias), Sch: c.scanSchema(o.Sch)}
		}
		c.scans[key] = s
		out = s
	case *Values:
		n := &Values{Sch: schema.Schema{Attrs: make([]schema.Attr, len(o.Sch.Attrs))}, Rows: make([]Row, len(o.Rows))}
		for i, a := range o.Sch.Attrs {
			n.Sch.Attrs[i] = schema.Attr{Qual: c.str(a.Qual), Name: c.str(a.Name)}
		}
		for i, r := range o.Rows {
			n.Rows[i] = make(Row, len(r))
			for j, e := range r {
				n.Rows[i][j], _ = c.expr(e, nil)
			}
		}
		out = n // a literal relation is small: it is not worth sharing
	case *Select:
		l := likeAs[Select](like)
		child := c.op(o.Child, l.Child)
		cond, same := c.expr(o.Cond, l.Cond)
		if out = l; !same || child != l.Child {
			out = &Select{Child: child, Cond: cond}
		}
	case *Project:
		l := likeAs[Project](like)
		child := c.op(o.Child, l.Child)
		cols := make([]ProjExpr, len(o.Cols))
		same := len(o.Cols) == len(l.Cols)
		for i, col := range o.Cols {
			e, shared := c.expr(col.E, at(l.Cols, i).E)
			cols[i] = ProjExpr{E: e, As: c.str(col.As), Qual: c.str(col.Qual)}
			same = same && shared && col.As == l.Cols[i].As && col.Qual == l.Cols[i].Qual
		}
		if same {
			cols = l.Cols
		}
		if out = l; !same || child != l.Child || o.Distinct != l.Distinct {
			out = &Project{Child: child, Cols: cols, Distinct: o.Distinct}
		}
	case *Cross:
		l := likeAs[Cross](like)
		n := Cross{L: c.op(o.L, l.L), R: c.op(o.R, l.R)}
		if out = l; n != *l {
			out = &n
		}
	case *Join:
		l := likeAs[Join](like)
		left, right := c.op(o.L, l.L), c.op(o.R, l.R)
		cond, same := c.expr(o.Cond, l.Cond)
		if out = l; !same || left != l.L || right != l.R {
			out = &Join{L: left, R: right, Cond: cond}
		}
	case *LeftJoin:
		l := likeAs[LeftJoin](like)
		left, right := c.op(o.L, l.L), c.op(o.R, l.R)
		cond, same := c.expr(o.Cond, l.Cond)
		if out = l; !same || left != l.L || right != l.R {
			out = &LeftJoin{L: left, R: right, Cond: cond}
		}
	case *Aggregate:
		l := likeAs[Aggregate](like)
		n := &Aggregate{Child: c.op(o.Child, l.Child), Group: make([]GroupExpr, len(o.Group)), Aggs: make([]AggExpr, len(o.Aggs))}
		same := n.Child == l.Child && len(o.Group) == len(l.Group) && len(o.Aggs) == len(l.Aggs)
		for i, g := range o.Group {
			e, shared := c.expr(g.E, at(l.Group, i).E)
			n.Group[i] = GroupExpr{E: e, As: c.str(g.As), Qual: c.str(g.Qual)}
			same = same && shared && g.As == l.Group[i].As && g.Qual == l.Group[i].Qual
		}
		for i, a := range o.Aggs {
			e, shared := c.expr(a.Arg, at(l.Aggs, i).Arg)
			n.Aggs[i] = AggExpr{Fn: a.Fn, Arg: e, As: c.str(a.As), Distinct: a.Distinct}
			same = same && shared && a.Fn == l.Aggs[i].Fn && a.As == l.Aggs[i].As && a.Distinct == l.Aggs[i].Distinct
		}
		if out = n; same {
			out = l
		}
	case *SetOp:
		l := likeAs[SetOp](like)
		n := SetOp{Kind: o.Kind, Bag: o.Bag, L: c.op(o.L, l.L), R: c.op(o.R, l.R)}
		if out = l; n != *l {
			out = &n
		}
	case *Order:
		l := likeAs[Order](like)
		n := &Order{Child: c.op(o.Child, l.Child), Keys: make([]SortKey, len(o.Keys))}
		same := n.Child == l.Child && len(o.Keys) == len(l.Keys)
		for i, k := range o.Keys {
			e, shared := c.expr(k.E, at(l.Keys, i).E)
			n.Keys[i] = SortKey{E: e, Desc: k.Desc}
			same = same && shared && k.Desc == l.Keys[i].Desc
		}
		if out = n; same {
			out = l
		}
	case *Limit:
		l := likeAs[Limit](like)
		n := Limit{Child: c.op(o.Child, l.Child), N: o.N, Offset: o.Offset}
		if out = l; n != *l {
			out = &n
		}
	}
	c.ops[op] = out
	return out
}
