package lint

import "testing"

func TestPurity(t *testing.T) {
	RunFixture(t, Purity, fixturePath("purity"))
}
