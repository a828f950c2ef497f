package rel

import (
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

func TestAddMergesDuplicates(t *testing.T) {
	r := New(schema.New("r", "a", "b"))
	r.Add(ints(1, 2), 1)
	r.Add(ints(1, 2), 2)
	r.Add(ints(3, 4), 1)
	if d := r.Distinct().Card(); d != 2 {
		t.Fatalf("distinct tuples = %d", d)
	}
	if r.Card() != 4 {
		t.Fatalf("card = %d", r.Card())
	}
	if r.Count(ints(1, 2)) != 3 {
		t.Fatalf("count = %d", r.Count(ints(1, 2)))
	}
}

func TestNegativeAddClampsAtZero(t *testing.T) {
	r := New(schema.New("r", "a"))
	r.Add(ints(1), 2)
	r.Add(ints(1), -5)
	if r.Count(ints(1)) != 0 {
		t.Fatalf("count after over-subtraction = %d", r.Count(ints(1)))
	}
	// Subtracting an absent tuple must not create a slot.
	r.Add(ints(9), -1)
	if r.Count(ints(9)) != 0 || !r.Empty() {
		t.Fatal("negative add created phantom tuple")
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
	c := a.Clone()
	c.Add(ints(5), 1)
	if a.Count(ints(5)) != 0 {
		t.Error("clone shares slots with original")
	}
}

func TestEachSkipsZeroSlots(t *testing.T) {
	s := schema.New("r", "a")
	r := FromTuples(s, ints(1), ints(2))
	r.Add(ints(1), -1)
	var seen int
	_ = r.Each(func(tp Tuple, n int) error {
		seen += n
		return nil
	})
	if seen != 1 {
		t.Errorf("Each visited card %d, want 1", seen)
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
