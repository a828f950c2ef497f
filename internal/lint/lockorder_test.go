package lint

import "testing"

func TestLockOrder(t *testing.T) {
	RunFixture(t, LockOrder, fixturePath("lockorder"))
}
