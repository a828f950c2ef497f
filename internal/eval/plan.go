package eval

import (
	"slices"

	"perm/internal/algebra"
	"perm/internal/rel"
	"perm/internal/schema"
)

// Plan is the physical annotation of one bound plan: every decision the
// executor makes about a node that does not depend on the rows, made once
// by Lower. It is PostgreSQL's Plan beside the PlanState of a run
// (runShared): package perm keeps one with each cached plan, lowered from
// that plan alone, so a cache hit decides nothing, and the run keeps only
// state. A Plan is immutable once Lower returns it and is shared by every
// run of its statement, on any goroutine; it holds no map, so the plan
// cache's frozen-plan fingerprint covers it.
//
// Every operator of the plan, those of sublink queries included, has a
// dense ID: the root is 0 and the others follow in first-visit pre-order
// (an operator, its children, then the queries of the sublinks in its
// expressions). An operator reached twice — the plan is a DAG where the
// rewrite or Compact shares a subtree — has one ID. The executor carries an
// operator's ID beside the operator, and keys its run state by it.
type Plan struct {
	root  algebra.Op
	nodes []node
	// subs maps the query of each sublink to its ID, in ID order.
	subs []subRoot
	// The decisions of the nodes that have one, in ID order: a node's phys
	// indexes the slice of its kind.
	joins   []joinPlan    // Cross, Join, LeftJoin
	outs    [][]int32     // a bag projection over a join, built by the join
	selects []*selectPlan // a selection answered by generation or an index
	// depth is the deepest nesting of sublinks in the plan: the length of
	// the longest scope a run evaluates a sublink under.
	depth int
}

// node is what the run needs of one operator besides its decision.
type node struct {
	kids  [2]int32 // the IDs of its children, in Children order
	width int32    // its output width
	phys  int32    // its decision's index, -1 for none
}

// subRoot is the ID of a sublink query.
type subRoot struct {
	query algebra.Op
	id    int32
}

// sublink returns the ID of a sublink's query.
func (p *Plan) sublink(q algebra.Op) int32 {
	for _, s := range p.subs {
		if s.query == q {
			return s.id
		}
	}
	panic("eval: a sublink query outside the plan")
}

// Lower annotates a bound plan (algebra.Bind). The annotation reads op and
// nothing else: two plans that decide alike still have two annotations.
func Lower(op algebra.Op) *Plan {
	l := &lowering{p: &Plan{root: op}, ids: map[algebra.Op]int32{}}
	l.number(op)
	l.p.depth = int(slices.Max(l.depth))
	for id, op := range l.ops {
		switch o := op.(type) {
		case *algebra.Cross, *algebra.Join, *algebra.LeftJoin:
			decide(l, id, &l.p.joins, l.join(op, int32(id)))
		case *algebra.Select:
			if sp := l.selectPlan(o); sp != nil {
				decide(l, id, &l.p.selects, sp)
			}
		}
	}
	// A projection's output map reads the decision of the join below it.
	for id, op := range l.ops {
		if o, ok := op.(*algebra.Project); ok {
			if out := l.fused(o, int32(id)); out != nil {
				decide(l, id, &l.p.outs, out)
			}
		}
	}
	p := l.p
	// The plan is kept for long: its slices are cut to their length.
	p.nodes, p.subs = slices.Clone(p.nodes), slices.Clone(p.subs)
	p.joins, p.outs, p.selects = slices.Clone(p.joins), slices.Clone(p.outs), slices.Clone(p.selects)
	return p
}

// lowering is the state of one Lower call.
type lowering struct {
	p   *Plan
	ids map[algebra.Op]int32
	ops []algebra.Op // by ID
	// depth is, by ID, the deepest nesting of sublinks at and below the
	// operator.
	depth []int32
}

// decide records the decision of node id in the slice of its kind.
func decide[T any](l *lowering, id int, list *[]T, d T) {
	l.p.nodes[id].phys = int32(len(*list))
	*list = append(*list, d)
}

// number gives op and everything below it their IDs and returns op's.
func (l *lowering) number(op algebra.Op) int32 {
	if id, ok := l.ids[op]; ok {
		return id
	}
	id := int32(len(l.ops))
	l.ids[op] = id
	l.ops = append(l.ops, op)
	l.p.nodes = append(l.p.nodes, node{width: int32(op.Schema().Len()), phys: -1})
	l.depth = append(l.depth, 0)
	for i, c := range op.Children() {
		k := l.number(c)
		l.p.nodes[id].kids[i] = k
		l.depth[id] = max(l.depth[id], l.depth[k])
	}
	exprs := algebra.OperatorExprs(op)
	if v, ok := op.(*algebra.Values); ok {
		for _, row := range v.Rows {
			exprs = append(exprs, row...)
		}
	}
	for _, x := range exprs {
		algebra.WalkExpr(x, func(x algebra.Expr) bool {
			if s, ok := x.(algebra.Sublink); ok {
				q := l.number(s.Query)
				l.depth[id] = max(l.depth[id], l.depth[q]+1)
				if !slices.ContainsFunc(l.p.subs, func(r subRoot) bool { return r.id == q }) {
					l.p.subs = append(l.p.subs, subRoot{query: s.Query, id: q})
				}
			}
			return true
		})
	}
	return id
}

// width returns the output width of an operator of the plan.
func (l *lowering) width(op algebra.Op) int { return int(l.p.nodes[l.ids[op]].width) }

// node returns the annotation of node id of the running plan.
func (e *Evaluator) node(id int32) *node { return &e.shared.plan.nodes[id] }

// kid returns the ID of child i of node id.
func (e *Evaluator) kid(id int32, i int) int32 { return e.shared.plan.nodes[id].kids[i] }

// bag returns an empty bag of node id's width for the run to fill.
func (e *Evaluator) bag(id int32) *rel.Relation { return rel.New(unnamed(e.node(id).width)) }

// unnamedAttrs backs the schemas unnamed returns.
var unnamedAttrs [256]schema.Attr

// unnamed returns the schema of every bag the executor materializes below
// the result: width w, no names, since the run reads columns by slot only.
// Up to 256 columns it allocates nothing. The result's relation alone
// carries the plan's schema (Run).
func unnamed(w int32) schema.Schema {
	if int(w) <= len(unnamedAttrs) {
		return schema.Schema{Attrs: unnamedAttrs[:w:w]}
	}
	return schema.Schema{Attrs: make([]schema.Attr, w)}
}
