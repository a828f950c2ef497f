package perm

import (
	"os"
	"testing"
)

// TestMain turns per-stage plan verification on for the whole root test
// suite: every query of the regression, differential, view and example
// tests now fails if any compile stage produces a structurally invalid
// plan or a run writes into a cached plan, making the entire suite a
// plancheck fixture for free.
func TestMain(m *testing.M) {
	DefaultPlanCheck = true
	os.Exit(m.Run())
}

func TestPlanCheckStrictCleanQuery(t *testing.T) {
	db := openFigure3(t)
	if _, err := db.Query("SELECT PROVENANCE a, b FROM r WHERE a = ANY (SELECT c FROM s)",
		WithPlanCheck(true)); err != nil {
		t.Fatalf("plan verification rejected a clean query: %v", err)
	}
}
