package eval

import "testing"

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
