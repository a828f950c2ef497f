package eval

import (
	"testing"

	"perm/internal/algebra"
	"perm/internal/rel"
	"perm/internal/types"
)

func TestMemoMissThenHit(t *testing.T) {
	var m memo[*int, string]
	node := new(int)
	if v, ok := m.get(node, []byte("b")); ok {
		t.Fatalf("empty memo: hit %q", v)
	}
	m.put(node, []byte("b"), "first")
	if v, ok := m.get(node, []byte("b")); !ok || v != "first" {
		t.Fatalf("after put: %q, %v; want first, true", v, ok)
	}
	m.put(node, []byte("b"), "second")
	if v, _ := m.get(node, []byte("b")); v != "second" {
		t.Fatalf("later put: %q; want second", v)
	}
}

// TestMemoKeyIsNodeAndBinding checks that an entry is found only under the
// node and the binding it was stored with: the same node under two
// bindings, under the empty and a non-empty binding, and two nodes under
// the empty binding are all distinct entries.
func TestMemoKeyIsNodeAndBinding(t *testing.T) {
	var m memo[*int, int]
	a, b := new(int), new(int)
	m.put(a, []byte("x"), 1)
	m.put(a, []byte("y"), 2)
	m.put(a, nil, 3)
	m.put(b, nil, 4)
	for _, c := range []struct {
		node    *int
		binding string
		want    int
		ok      bool
	}{
		{a, "x", 1, true},
		{a, "y", 2, true},
		{a, "", 3, true},
		{b, "", 4, true},
		{b, "x", 0, false},
		{a, "z", 0, false},
	} {
		if v, ok := m.get(c.node, []byte(c.binding)); v != c.want || ok != c.ok {
			t.Errorf("get(node %p, %q) = %d, %v; want %d, %v", c.node, c.binding, v, ok, c.want, c.ok)
		}
	}
}

func TestMemosAreSeparate(t *testing.T) {
	var bags, verdicts memo[*int, int]
	node := new(int)
	bags.put(node, []byte("k"), 1)
	if v, ok := verdicts.get(node, []byte("k")); ok {
		t.Fatalf("second memo sees the first's entry %d", v)
	}
	verdicts.put(node, []byte("k"), 2)
	if v, _ := bags.get(node, []byte("k")); v != 1 {
		t.Fatalf("first memo: %d after a put into the second; want 1", v)
	}
}

// TestMemoHitAllocatesNothing pins what the probes rely on: a hit whose
// binding sits in a stack buffer builds no key string.
func TestMemoHitAllocatesNothing(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts differ under -race")
	}
	var m memo[*int, int]
	node := new(int)
	m.put(node, []byte("i\x00\x00\x00\x00\x00\x00\x00\x07"), 7)
	allocs := testing.AllocsPerRun(100, func() {
		var buf [64]byte
		key := append(buf[:0], 'i', 0, 0, 0, 0, 0, 0, 0, 7)
		if v, ok := m.get(node, key); !ok || v != 7 {
			t.Fatalf("miss: %d, %v", v, ok)
		}
	})
	if allocs != 0 {
		t.Errorf("hit: %.1f allocs, want 0", allocs)
	}
}

// TestSublinkMemoHitAllocatesNothing: a correlated EXISTS whose binding the
// run already answered allocates nothing: its scope is a frame of the run's
// scope stack (see evalSublink), and its memo key sits in a stack buffer.
func TestSublinkMemoHitAllocatesNothing(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts differ under -race")
	}
	cat := slopeDB(100)
	plan, err := algebra.Bind(compileOptimized(t, cat, `SELECT * FROM r WHERE EXISTS (SELECT c FROM s WHERE d = b)`))
	if err != nil {
		t.Fatal(err)
	}
	ev := New(cat)
	if _, err := ev.Run(Lower(plan)); err != nil {
		t.Fatal(err)
	}
	var sub *algebra.Sublink
	var find func(op algebra.Op)
	find = func(op algebra.Op) {
		for _, x := range algebra.OperatorExprs(op) {
			algebra.WalkExpr(x, func(x algebra.Expr) bool {
				if s, ok := x.(algebra.Sublink); ok && sub == nil {
					sub = &s
				}
				return true
			})
		}
		for _, c := range op.Children() {
			find(c)
		}
	}
	find(plan)
	if sub == nil {
		t.Fatalf("no sublink in\n%s", algebra.Indent(plan))
	}
	row := ints(7, 7) // b = 7: a binding the run probed, which s matches
	allocs := testing.AllocsPerRun(100, func() {
		if v, err := ev.evalSublink(*sub, row, nil); err != nil || v != types.NewBool(true) {
			t.Fatalf("EXISTS = %v, %v; want true", v, err)
		}
	})
	if allocs != 0 {
		t.Errorf("memo hit: %.1f allocs, want 0", allocs)
	}
}

// TestInitPlanUnderSublinkKeepsScope: an uncorrelated sublink evaluated
// under a correlated one starts from the empty scope, and the sublinks in
// it must not take the scope stack's frames from under the enclosing
// sublink, whose correlated comparison c = a reads its frame afterwards.
func TestInitPlanUnderSublinkKeepsScope(t *testing.T) {
	const query = `SELECT a FROM r WHERE EXISTS (SELECT c FROM s WHERE c IN (SELECT x.c FROM s x WHERE EXISTS (SELECT * FROM r y WHERE y.a = x.c)) AND c = a)`
	cat := figure3DB()
	plan := compileOptimized(t, cat, query)
	for _, materialize := range []bool{false, true} {
		ev := New(cat)
		ev.DisableStreaming = materialize
		out, err := ev.Eval(plan)
		if err != nil {
			t.Fatal(err)
		}
		want := rel.FromTuples(out.Schema, ints(1), ints(2))
		if !out.Equal(want) {
			t.Errorf("materialize=%v: %v, want a = 1 and 2", materialize, out.Tuples())
		}
	}
}
