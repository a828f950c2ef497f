package algebra

import (
	"math"
	"strings"
	"testing"
	"unsafe"

	"perm/internal/schema"
	"perm/internal/types"
)

// compactPlan is a plan with what Compact cares about: repeated scans and
// attribute references, a sublink, a wide projection above a parameterised
// selection.
func compactPlan() Op {
	text := strings.Repeat("SELECT a, b FROM r AS x ", 2) // stands for a statement text
	alias := text[22:23]                                  // "x", sliced out of it like a lexed identifier
	scan := func() Op { return NewScan("r", alias, schema.New("r", "a", "b")) }
	sub := Sublink{Kind: ExistsSublink, Query: &Select{Child: scanS(), Cond: Cmp{Op: types.CmpEq, L: Attr("c"), R: QAttr(alias, "a")}}}
	sel := &Select{Child: &Cross{L: scan(), R: scan()}, Cond: And{
		L: Cmp{Op: types.CmpGt, L: QAttr(alias, "a"), R: Param{Idx: 0}},
		R: sub,
	}}
	lower := NewProject(sel, Col(QAttr(alias, "a"), "a"), Col(QAttr(alias, "b"), "b"), Col(StrConst(text[7:8]), "k"))
	return &Order{
		Child: NewProject(lower, KeepCol("a"), KeepCol("b"), KeepCol("k"), Col(Func{Name: "upper", Args: []Expr{Attr("k")}}, "u")),
		Keys:  []SortKey{{E: Attr("a")}},
	}
}

// sameBox reports whether two interface values share their boxed value.
func sameBox(a, b Expr) bool {
	return (*[2]unsafe.Pointer)(unsafe.Pointer(&a))[1] == (*[2]unsafe.Pointer)(unsafe.Pointer(&b))[1]
}

func TestCompactKeepsThePlan(t *testing.T) {
	plan := compactPlan()
	got := Compact(plan, nil)
	if Indent(got) != Indent(plan) || got.Schema().String() != plan.Schema().String() {
		t.Fatalf("compacted plan differs:\n%s\nwant\n%s", Indent(got), Indent(plan))
	}
	// One node for the two equal scans, one box for each distinct reference.
	var scans []*Scan
	refs := map[AttrRef][]Expr{}
	Walk(got, func(o Op) bool {
		if s, ok := o.(*Scan); ok && s.Name == "r" {
			scans = append(scans, s)
		}
		for _, e := range OperatorExprs(o) {
			WalkExpr(e, func(x Expr) bool {
				if ref, ok := x.(AttrRef); ok {
					refs[ref] = append(refs[ref], x)
				}
				return true
			})
		}
		return true
	})
	if len(scans) != 2 || scans[0] != scans[1] {
		t.Errorf("scans of r: %v, want one node reached twice", scans)
	}
	for ref, boxes := range refs {
		for _, box := range boxes[1:] {
			if !sameBox(box, boxes[0]) {
				t.Errorf("%s is boxed more than once", ref)
			}
		}
	}
	// No string of the copy is a slice of the statement text.
	before := plan.(*Order).Child.(*Project).Child.(*Project).Child.(*Select).Child.(*Cross).L.(*Scan)
	if unsafe.StringData(scans[0].Alias) == unsafe.StringData(before.Alias) || scans[0].Alias != before.Alias {
		t.Errorf("the alias still points into the statement text")
	}
	// The catalog's schema is used as it is.
	pooled := schema.New("x", "a", "b")
	withPool := Compact(plan, []schema.Schema{pooled})
	Walk(withPool, func(o Op) bool {
		if s, ok := o.(*Scan); ok && s.Name == "r" && &s.Sch.Attrs[0] != &pooled.Attrs[0] {
			t.Errorf("scan schema is not the pooled one")
		}
		return true
	})
}

// TestCompactKeepsConstantKinds: 2 and 2.0 are equal constants to ExprEqual
// and different computations under a division; within a plan one may not
// stand for the other.
func TestCompactKeepsConstantKinds(t *testing.T) {
	div := func(c Const) Expr { return Arith{Op: types.OpDiv, L: Attr("a"), R: c} }
	kinds := func(op Op) (out []types.Kind) {
		for _, col := range op.(*Project).Cols {
			out = append(out, col.E.(Arith).R.(Const).Val.Kind())
		}
		return out
	}
	if !ExprEqual(div(IntConst(2)), div(FloatConst(2))) || ExprIdentical(div(IntConst(2)), div(FloatConst(2))) {
		t.Fatal("a/2 and a/2.0 must be equal and not identical")
	}
	if ExprIdentical(FloatConst(0), FloatConst(math.Copysign(0, -1))) || !ExprIdentical(StrConst("x"), StrConst("x")) {
		t.Error("identical constants are the same value of the same kind")
	}
	if !ExprIdentical(FloatConst(math.NaN()), FloatConst(math.NaN())) {
		t.Error("two NaN constants with equal bits are identical")
	}
	plan := NewProject(scanR(), Col(div(IntConst(2)), "i"), Col(div(FloatConst(2)), "f"))
	if got := kinds(Compact(plan, nil)); got[0] != types.KindInt || got[1] != types.KindFloat {
		t.Errorf("constant kinds %v", got)
	}
}

func TestParamExpr(t *testing.T) {
	if got := (Param{Idx: 2}).String(); got != "$3" {
		t.Errorf("String = %q", got)
	}
	if !ExprEqual(Param{Idx: 1}, Param{Idx: 1}) || ExprEqual(Param{Idx: 1}, Param{Idx: 2}) || ExprEqual(Param{Idx: 1}, IntConst(1)) {
		t.Error("a parameter equals exactly the parameter of its slot")
	}
	e := Cmp{Op: types.CmpEq, L: Attr("a"), R: Param{Idx: 0}}
	if mapped := MapExpr(e, func(x Expr) Expr { return x }); !ExprEqual(mapped, e) {
		t.Errorf("MapExpr lost the parameter: %s", mapped)
	}
	if HasSublink(e) || len(FreeVars(&Select{Child: scanR(), Cond: e})) != 0 {
		t.Error("a parameter is a leaf without references")
	}
}
