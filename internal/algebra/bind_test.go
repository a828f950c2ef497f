package algebra

import (
	"strings"
	"testing"

	"perm/internal/schema"
	"perm/internal/types"
)

// The binder's grid: r(a, b), s(a, c) and t(x) under their own names, so
// that a shares its name between r and s.
func bindR() *Scan { return NewScan("r", "", schema.New("", "a", "b")) }
func bindS() *Scan { return NewScan("s", "", schema.New("", "a", "c")) }
func bindT() *Scan { return NewScan("t", "", schema.New("", "x")) }

func eq(l, r Expr) Expr { return Cmp{Op: types.CmpEq, L: l, R: r} }

func exists(q Op) Sublink { return Sublink{Kind: ExistsSublink, Query: q} }

func mustBind(t *testing.T, op Op) Op {
	t.Helper()
	bound, err := Bind(op)
	if err != nil {
		t.Fatalf("Bind: %v\n%s", err, Indent(op))
	}
	return bound
}

// condRefs returns the references of a bound selection's condition, left to
// right.
func condRefs(op Op) []Ref {
	var out []Ref
	WalkExpr(op.(*Select).Cond, func(x Expr) bool {
		if r, ok := x.(Ref); ok {
			out = append(out, r)
		}
		return true
	})
	return out
}

// sublinkOf returns the first sublink of a bound selection's condition.
func sublinkOf(op Op) Sublink { return CollectSublinks(op.(*Select).Cond)[0] }

func wantRefs(t *testing.T, what string, got []Ref, want ...Ref) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: refs %v, want %v", what, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: refs %v, want %v", what, got, want)
			return
		}
	}
}

// TestBindGrid binds one reference per case and checks the (depth, slot) it
// reads, or the error it fails with — the order eval.resolveAttr searched in
// before plans were bound: the operator's input, then the enclosing sublink
// scopes innermost first, ambiguity in the first scope that has the name an
// error.
func TestBindGrid(t *testing.T) {
	t.Run("inner column shadows outer", func(t *testing.T) {
		// σ[EXISTS σ[a = 1](s)](r): the inner a is s.a, not r.a.
		plan := &Select{Child: bindR(), Cond: exists(&Select{Child: bindS(), Cond: eq(Attr("a"), IntConst(1))})}
		sub := sublinkOf(mustBind(t, plan))
		wantRefs(t, "a", condRefs(sub.Query), Ref{Depth: 0, Idx: 0})
		wantRefs(t, "free", sub.Free)
	})
	t.Run("inner scope shadows outer scope", func(t *testing.T) {
		// Two levels down, a is in the scope one level up (s) and two up (r):
		// the innermost wins.
		inner := &Select{Child: bindT(), Cond: eq(Attr("x"), Attr("a"))}
		plan := &Select{Child: bindR(), Cond: exists(&Select{Child: bindS(), Cond: exists(inner)})}
		mid := sublinkOf(mustBind(t, plan))
		in := sublinkOf(mid.Query)
		wantRefs(t, "x = a", condRefs(in.Query), Ref{Depth: 0, Idx: 0}, Ref{Depth: 1, Idx: 0})
		wantRefs(t, "inner free", in.Free, Ref{Depth: 1, Idx: 0})
		wantRefs(t, "middle free", mid.Free)
	})
	t.Run("qualified reaches past a shadowing column", func(t *testing.T) {
		plan := &Select{Child: bindR(), Cond: exists(&Select{Child: bindS(),
			Cond: And{L: eq(QAttr("r", "a"), Attr("a")), R: eq(QAttr("s", "a"), Attr("c"))}})}
		sub := sublinkOf(mustBind(t, plan))
		wantRefs(t, "r.a = a AND s.a = c", condRefs(sub.Query),
			Ref{Depth: 1, Idx: 0}, Ref{Depth: 0, Idx: 0}, Ref{Depth: 0, Idx: 0}, Ref{Depth: 0, Idx: 1})
		wantRefs(t, "free", sub.Free, Ref{Depth: 1, Idx: 0})
	})
	t.Run("correlation two levels up", func(t *testing.T) {
		// σ[x = b](t) inside a sublink of s inside a sublink of r: b is r's.
		inner := &Select{Child: bindT(), Cond: eq(Attr("x"), Attr("b"))}
		plan := &Select{Child: bindR(), Cond: exists(&Select{Child: bindS(), Cond: exists(inner)})}
		mid := sublinkOf(mustBind(t, plan))
		in := sublinkOf(mid.Query)
		wantRefs(t, "x = b", condRefs(in.Query), Ref{Depth: 0, Idx: 0}, Ref{Depth: 2, Idx: 1})
		wantRefs(t, "inner free", in.Free, Ref{Depth: 2, Idx: 1})
		wantRefs(t, "middle free", mid.Free, Ref{Depth: 1, Idx: 1})
	})
	t.Run("ambiguous at depth 0", func(t *testing.T) {
		plan := &Select{Child: &Cross{L: bindR(), R: bindS()}, Cond: eq(Attr("a"), IntConst(1))}
		wantBindError(t, plan, "eval: ambiguous attribute reference a in (r.a, r.b, s.a, s.c)")
	})
	t.Run("ambiguous at depth 1", func(t *testing.T) {
		plan := &Select{Child: &Cross{L: bindR(), R: bindS()}, Cond: exists(&Select{Child: bindT(), Cond: eq(Attr("x"), Attr("a"))})}
		wantBindError(t, plan, "eval: ambiguous correlated reference a in (r.a, r.b, s.a, s.c)")
	})
	t.Run("depth 0 decides before an ambiguous depth 1", func(t *testing.T) {
		plan := &Select{Child: &Cross{L: bindR(), R: bindS()}, Cond: exists(&Select{Child: bindS(), Cond: eq(Attr("a"), IntConst(1))})}
		wantRefs(t, "a", condRefs(sublinkOf(mustBind(t, plan)).Query), Ref{Depth: 0, Idx: 0})
	})
	t.Run("unknown", func(t *testing.T) {
		plan := &Select{Child: bindR(), Cond: exists(&Select{Child: bindT(), Cond: eq(Attr("x"), Attr("zz"))})}
		wantBindError(t, plan, "eval: unknown attribute zz (scope (t.x), 1 outer scopes)")
	})
	t.Run("values rows in a correlated scope", func(t *testing.T) {
		// A literal relation has no input: its rows read enclosing scopes only.
		vals := &Values{Sch: schema.New("", "v"), Rows: []Row{{Attr("b")}, {Arith{Op: types.OpAdd, L: Attr("a"), R: IntConst(1)}}}}
		plan := &Select{Child: bindR(), Cond: exists(vals)}
		sub := sublinkOf(mustBind(t, plan))
		rows := sub.Query.(*Values).Rows
		if rows[0][0] != Expr(Ref{Depth: 1, Idx: 1}) || rows[1][0].(Arith).L != Expr(Ref{Depth: 1, Idx: 0}) {
			t.Errorf("values rows bound to %v", rows)
		}
		wantRefs(t, "free", sub.Free, Ref{Depth: 1, Idx: 0}, Ref{Depth: 1, Idx: 1})
	})
	t.Run("join condition reads the concatenated input", func(t *testing.T) {
		// r ⋈[c = b AND s.a = r.a] s: right-side columns sit after the left's.
		j := mustBind(t, &Join{L: bindR(), R: bindS(), Cond: And{L: eq(Attr("c"), Attr("b")), R: eq(QAttr("s", "a"), QAttr("r", "a"))}}).(*Join)
		var got []Ref
		WalkExpr(j.Cond, func(x Expr) bool {
			if r, ok := x.(Ref); ok {
				got = append(got, r)
			}
			return true
		})
		wantRefs(t, "c = b AND s.a = r.a", got, Ref{Idx: 3}, Ref{Idx: 1}, Ref{Idx: 2}, Ref{Idx: 0})
	})
	t.Run("subtree shared under two scope stacks", func(t *testing.T) {
		// q = σ[x = a](t) sits in a sublink of r and in a sublink of s below
		// it: a is r.a in one place and s.a in the other, so the one input
		// node becomes two bound nodes. Reached twice under one stack, it
		// stays one node.
		q := &Select{Child: bindT(), Cond: eq(Attr("x"), Attr("a"))}
		plan := &Select{Child: bindR(), Cond: And{
			L: exists(q),
			R: And{L: exists(q), R: exists(&Select{Child: bindS(), Cond: exists(q)})},
		}}
		subs := CollectSublinks(mustBind(t, plan).(*Select).Cond)
		if len(subs) != 3 {
			t.Fatalf("%d sublinks", len(subs))
		}
		if subs[0].Query != subs[1].Query {
			t.Error("one subtree under one scope stack was bound twice")
		}
		nested := sublinkOf(subs[2].Query)
		if nested.Query == subs[0].Query {
			t.Error("one bound node serves two scope stacks")
		}
		wantRefs(t, "under r", condRefs(subs[0].Query), Ref{Idx: 0}, Ref{Depth: 1, Idx: 0})
		wantRefs(t, "under s", condRefs(nested.Query), Ref{Idx: 0}, Ref{Depth: 1, Idx: 0})
		wantRefs(t, "free under s", subs[2].Free)
	})
}

func wantBindError(t *testing.T, op Op, want string) {
	t.Helper()
	_, err := Bind(op)
	if err == nil || err.Error() != want {
		t.Errorf("Bind error %v, want %q", err, want)
	}
}

// TestIndentRendersBoundNames: Indent prints a bound plan by name, bare
// where the bare name binds the same way and qualified where it does not,
// and never in slot syntax.
func TestIndentRendersBoundNames(t *testing.T) {
	plan := &Select{Child: &Cross{L: bindR(), R: bindS()},
		Cond: And{L: eq(QAttr("s", "a"), Attr("b")), R: exists(&Select{Child: bindT(), Cond: eq(Attr("x"), Attr("c"))})}}
	got := Indent(mustBind(t, plan))
	if strings.Contains(got, "⟨") || !strings.Contains(got, "s.a = b") || !strings.Contains(got, "x = c") {
		t.Errorf("bound plan renders as\n%s", got)
	}
	if got != Indent(plan) {
		t.Errorf("bound plan renders as\n%s\nthe plan it was bound from as\n%s", got, Indent(plan))
	}
}
