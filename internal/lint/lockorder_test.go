package lint

import (
	"strings"
	"testing"
)

func TestLockOrder(t *testing.T) {
	RunFixture(t, LockOrder, fixturePath("lockorder"))
}

// TestLockOrderDOT asserts the graph renders as well-formed DOT with the
// cycle highlighted.
func TestLockOrderDOT(t *testing.T) {
	pkg, err := sharedLoader().LoadDir(fixturePath("lockorder"))
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	dot := LockOrderDOT([]*Package{pkg})
	if !strings.HasPrefix(dot, "digraph lockorder {") || !strings.HasSuffix(dot, "}\n") {
		t.Fatalf("not a DOT digraph:\n%s", dot)
	}
	for _, want := range []string{
		`"lockorder.a.mu" [color=red, penwidth=2];`,
		`"lockorder.b.mu" [color=red, penwidth=2];`,
		`"lockorder.a.mu" -> "lockorder.b.mu"`,
		`"lockorder.b.mu" -> "lockorder.a.mu"`,
		`"lockorder.outer.mu" -> "lockorder.inner.mu"`,
		`"lockorder.f.mu" -> "lockorder.e.mu"`,
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q:\n%s", want, dot)
		}
	}
	// The consistently ordered pair must not be highlighted.
	if strings.Contains(dot, `"lockorder.outer.mu" [color=red`) {
		t.Errorf("acyclic node wrongly highlighted:\n%s", dot)
	}
}
