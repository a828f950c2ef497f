package rel

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"perm/internal/schema"
	"perm/internal/types"
)

func ints(vals ...int64) Tuple {
	t := make(Tuple, len(vals))
	for i, v := range vals {
		t[i] = types.NewInt(v)
	}
	return t
}

func TestAddKeepsDuplicateSlots(t *testing.T) {
	r := New(schema.New("r", "a", "b"))
	r.Add(ints(1, 2), 1)
	r.Add(ints(3, 4), 1)
	r.Add(ints(1, 2), 2)
	r.Add(ints(5, 6), 0) // adds nothing
	if got := slots(r); got != "(1, 2)×1 (3, 4)×1 (1, 2)×2" {
		t.Fatalf("slots = %s, want one per Add, in order", got)
	}
	if r.Card() != 4 || r.Count(ints(1, 2)) != 3 {
		t.Fatalf("card = %d, count = %d: both sum across slots", r.Card(), r.Count(ints(1, 2)))
	}
	d := r.Distinct()
	if d.Card() != 2 || d.Count(ints(1, 2)) != 1 {
		t.Fatalf("distinct = %v", d)
	}
	merged := FromTuples(r.Schema, ints(3, 4), ints(1, 2), ints(1, 2), ints(1, 2))
	if !r.Equal(merged) || !merged.Equal(r) {
		t.Fatal("Equal must sum a tuple's slots")
	}
	if r.Equal(FromTuples(r.Schema, ints(3, 4), ints(1, 2), ints(1, 2))) {
		t.Fatal("Equal must compare summed multiplicities")
	}
	// 1 and 1.0 are one tuple under =n, and so are two NULLs.
	f := New(schema.New("f", "a"))
	f.Add(Tuple{types.NewInt(1)}, 1)
	f.Add(Tuple{types.NewFloat(1)}, 1)
	f.Add(Tuple{types.Null()}, 1)
	f.Add(Tuple{types.Null()}, 2)
	if g := f.Group(); g.Len() != 2 || g.Count(Tuple{types.NewFloat(1)}) != 2 || g.Count(Tuple{types.Null()}) != 3 {
		t.Fatalf("groups of %v: %d", f, g.Len())
	}
}

// slots renders a relation's slots in order, as tuple×count.
func slots(r *Relation) string {
	var out []string
	_ = r.Each(func(tp Tuple, n int) error {
		out = append(out, fmt.Sprint(tp, "×", n))
		return nil
	})
	return strings.Join(out, " ")
}

func TestMergeFoldsSlots(t *testing.T) {
	s := schema.New("r", "a")
	r := FromTuples(s, ints(2), ints(1), ints(2), ints(2))
	view := r.WithSchema(schema.New("v", "a"))
	r.Merge()
	if got := slots(r); got != "(2)×3 (1)×1" {
		t.Fatalf("merged slots = %s, want first-occurrence order", got)
	}
	if got := slots(view); got != "(2)×1 (1)×1 (2)×1 (2)×1" {
		t.Fatalf("a view taken before Merge sees %s", got)
	}
	r.Merge()
	r.Add(ints(1), 1)
	r.Merge()
	if got := slots(r); got != "(2)×3 (1)×2" {
		t.Fatalf("merged again after an Add: %s", got)
	}
}

func TestAddNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on a negative multiplicity")
		}
	}()
	r := New(schema.New("r", "a"))
	r.Add(ints(1), -1)
}

func TestGroupTake(t *testing.T) {
	s := schema.New("r", "a")
	g := FromTuples(s, ints(1), ints(2), ints(1), ints(1)).Group()
	if got := g.Take(ints(1), 2); got != 2 {
		t.Fatalf("Take(1, 2) = %d", got)
	}
	if got := g.Take(ints(1), 5); got != 1 {
		t.Fatalf("Take(1, 5) after taking 2 of 3 = %d", got)
	}
	if got := g.Take(ints(9), 1); got != 0 || g.Count(ints(1)) != 0 || g.Count(ints(2)) != 1 {
		t.Fatalf("Take of an absent tuple = %d; counts left %d, %d", got, g.Count(ints(1)), g.Count(ints(2)))
	}
}

func TestWidthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on width mismatch")
		}
	}()
	r := New(schema.New("r", "a", "b"))
	r.Add(ints(1), 1)
}

func TestEqualAndEqualSet(t *testing.T) {
	s := schema.New("r", "a")
	a := FromTuples(s, ints(1), ints(1), ints(2))
	b := FromTuples(s, ints(2), ints(1), ints(1))
	c := FromTuples(s, ints(1), ints(2))
	if !a.Equal(b) {
		t.Error("bag equality should ignore insertion order")
	}
	if a.Equal(c) {
		t.Error("bag equality must respect multiplicities")
	}
	if !a.EqualSet(c) {
		t.Error("set equality must ignore multiplicities")
	}
	d := FromTuples(s, ints(3))
	if a.EqualSet(d) {
		t.Error("different tuples are not set-equal")
	}
}

func TestDistinctAndClone(t *testing.T) {
	s := schema.New("r", "a")
	a := FromTuples(s, ints(1), ints(1), ints(2))
	d := a.Distinct()
	if d.Card() != 2 || d.Count(ints(1)) != 1 {
		t.Errorf("distinct wrong: %v", d)
	}
	// Appending to a clone, within its spare room and beyond it, never
	// reaches the original.
	c := a.Clone(1)
	c.Add(ints(5), 1)
	c.Add(ints(6), 1)
	if a.Count(ints(5)) != 0 || a.Count(ints(6)) != 0 || a.Card() != 3 {
		t.Error("clone shares slots with original")
	}
	b := a.Clone(0)
	b.Add(ints(7), 1)
	if a.Count(ints(7)) != 0 || c.Count(ints(7)) != 0 || c.Card() != 5 {
		t.Error("clones share slots")
	}
}

func TestTupleHelpers(t *testing.T) {
	a := ints(1, 2)
	b := a.Clone()
	b[0] = types.NewInt(9)
	if a[0].Int() != 1 {
		t.Error("Clone shares storage")
	}
	c := ints(1).Concat(ints(2, 3))
	if len(c) != 3 || c[2].Int() != 3 {
		t.Errorf("Concat = %v", c)
	}
	n := Nulls(3)
	for _, v := range n {
		if !v.IsNull() {
			t.Error("Nulls produced non-null")
		}
	}
	if s := ints(1, 2).String(); s != "(1, 2)" {
		t.Errorf("Tuple.String = %q", s)
	}
}

func TestTupleKeyInjective(t *testing.T) {
	f := func(a, b int64, c, d int64) bool {
		t1, t2 := ints(a, b), ints(c, d)
		return (t1.Key() == t2.Key()) == (a == c && b == d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRelationString(t *testing.T) {
	s := schema.New("r", "a")
	r := FromTuples(s, ints(2), ints(1))
	got := r.String()
	if got != "(r.a) {(1), (2)}" {
		t.Errorf("String = %q", got)
	}
}

func TestWithSchemaSharesAndPanics(t *testing.T) {
	s := schema.New("r", "a")
	r := FromTuples(s, ints(1))
	v := r.WithSchema(schema.New("x", "b"))
	if v.Card() != 1 || v.Schema.Attrs[0].Qual != "x" {
		t.Errorf("view = %s", v)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("width mismatch should panic")
		}
	}()
	r.WithSchema(schema.New("x", "b", "c"))
}

func TestEqualWidthAndCountEdge(t *testing.T) {
	a := FromTuples(schema.New("", "x"), ints(1))
	b := FromTuples(schema.New("", "x", "y"), ints(1, 2))
	if a.Equal(b) || a.EqualSet(b) {
		t.Error("different widths must not compare equal")
	}
	var empty Relation
	if empty.Count(ints(1)) != 0 {
		t.Error("zero-value relation Count should be 0")
	}
}

func TestSortedTuplesDeterministic(t *testing.T) {
	s := schema.New("r", "a")
	a := FromTuples(s, ints(3), ints(1), ints(2), ints(1))
	got := a.SortedTuples()
	if len(got) != 4 {
		t.Fatalf("len = %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Key() > got[i].Key() {
			t.Fatal("not sorted")
		}
	}
}

// TestAttach: the first value attached under a key is the one every later
// Attach and Attached call gets; views and copies do not share it, and a
// change to the slots drops it.
func TestAttach(t *testing.T) {
	r := FromTuples(schema.New("r", "a"), ints(1), ints(2), ints(1))
	if r.Attached("k") != nil {
		t.Fatal("a new relation has an attached value")
	}
	if got := r.Attach("k", 1); got != 1 {
		t.Fatalf("Attach = %v, want 1", got)
	}
	if got := r.Attach("k", 2); got != 1 {
		t.Errorf("a second Attach = %v, want the first value 1", got)
	}
	r.Attach("j", 3)
	if r.Attached("k") != 1 || r.Attached("j") != 3 {
		t.Errorf("Attached = %v, %v; want 1, 3", r.Attached("k"), r.Attached("j"))
	}
	if r.WithSchema(schema.New("s", "a")).Attached("k") != nil || r.Clone(0).Attached("k") != nil {
		t.Error("a view or a copy shares the attached values")
	}
	m := r.Clone(0)
	m.Attach("k", 1)
	m.Merge()
	if m.Attached("k") != nil {
		t.Error("Merge kept a value attached to the old slots")
	}
	r.Add(ints(3), 1)
	if r.Attached("k") != nil || r.Attached("j") != nil {
		t.Error("Add kept the attached values")
	}
}

// TestAttachCap: a relation keeps at most maxAttached values; past that,
// Attach hands the caller its own value and publishes nothing.
func TestAttachCap(t *testing.T) {
	r := FromTuples(schema.New("r", "a"), ints(1))
	for i := range maxAttached {
		r.Attach(fmt.Sprint(i), i)
	}
	if got := r.Attach("over", -1); got != -1 {
		t.Errorf("Attach past the cap = %v, want the caller's value -1", got)
	}
	if r.Attached("over") != nil {
		t.Error("Attach past the cap published its value")
	}
	if got := r.Attach("0", -1); got != 0 {
		t.Errorf("Attach of a held key past the cap = %v, want the held value 0", got)
	}
}
