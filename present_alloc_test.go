package perm

import (
	"math/rand/v2"
	"testing"
)

// TestPresentAllocSlopes pins the allocations per result row of DB.Query
// end to end — executor, ordering and presentation — the way
// internal/eval's TestAllocSlopes pins the executor's: each query runs over
// r(a, b) with 500 and 1000 rows, inserted in shuffled order, and the slope
// is (A(1000) − A(500)) / 500. Every b is equal, so under ORDER BY b every
// comparison is a tie and falls through to the tuple tie-break. A result
// without ORDER BY comes in engine order and is not sorted at all. Beside r
// sits s(c, d) of 50 rows, whose d matches every b once.
func TestPresentAllocSlopes(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts differ under -race")
	}
	for _, c := range []struct {
		name    string
		query   string
		ceiling float64
	}{
		{"unordered", `SELECT a, b FROM r`, 2.1},
		{"orderByTies", `SELECT a, b FROM r ORDER BY b`, 3.1},
		{"provenanceOrderByTies", `SELECT PROVENANCE a FROM r ORDER BY b`, 4.1},
		{"provenanceJoin", `SELECT PROVENANCE r.a, s.c FROM r, s WHERE r.b = s.d`, 3.1},
	} {
		t.Run(c.name, func(t *testing.T) {
			allocs := func(n int) float64 {
				rows := make([][]any, n)
				for i, a := range rand.New(rand.NewPCG(1, uint64(n))).Perm(n) {
					rows[i] = []any{a, 7}
				}
				db := Open()
				if err := db.Register("r", []string{"a", "b"}, rows); err != nil {
					t.Fatal(err)
				}
				srows := make([][]any, 50)
				for i := range srows {
					srows[i] = []any{i, i}
				}
				if err := db.Register("s", []string{"c", "d"}, srows); err != nil {
					t.Fatal(err)
				}
				return testing.AllocsPerRun(3, func() {
					if _, err := db.Query(c.query); err != nil {
						t.Fatal(err)
					}
				})
			}
			slope := (allocs(1000) - allocs(500)) / 500
			t.Logf("%.2f allocs/row (ceiling %.2f)", slope, c.ceiling)
			if slope > c.ceiling {
				t.Errorf("%s: %.2f allocs per row of r, ceiling %.2f", c.name, slope, c.ceiling)
			}
		})
	}
}

// TestPresentedRowsAreCapped: the presented rows share one backing array,
// so each must be capped at its own length, or an append to one row would
// overwrite the next. An empty result keeps Rows nil.
func TestPresentedRowsAreCapped(t *testing.T) {
	db := Open()
	if err := db.Register("r", []string{"a", "b"}, [][]any{{1, 10}, {2, 20}, {3, 30}}); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`SELECT a, b FROM r ORDER BY a`)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range res.Rows {
		if cap(row) != len(row) {
			t.Errorf("row %d has len %d, cap %d", i, len(row), cap(row))
		}
	}
	_ = append(res.Rows[0], "x")
	if got := res.Rows[1]; got[0] != int64(2) || got[1] != int64(20) {
		t.Errorf("appending to row 0 changed row 1: %v", got)
	}
	empty, err := db.Query(`SELECT a FROM r WHERE a > 3`)
	if err != nil {
		t.Fatal(err)
	}
	if empty.Rows != nil {
		t.Errorf("empty result: Rows = %#v, want nil", empty.Rows)
	}
}

// TestInsertAllocSlopes pins the cost of an INSERT to the rows it adds, not
// to the rows already in the table: a five-row INSERT into r(a, b) with
// 1000 and with 4000 rows, and the slope is (A(4000) − A(1000)) / 3000
// allocations per existing row. Publishing the new version copies the
// table's slot slices once, whatever their length.
func TestInsertAllocSlopes(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts differ under -race")
	}
	const ceiling = 0.01
	allocs := func(n int) float64 {
		rows := make([][]any, n)
		for i := range rows {
			rows[i] = []any{i, i % 7}
		}
		db := Open()
		if err := db.Register("r", []string{"a", "b"}, rows); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() {
			if _, err := db.Exec(`INSERT INTO r VALUES (1, 2), (3, 4), (5, 6), (7, 8), (9, 10)`); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1000), allocs(4000)
	slope := (large - small) / 3000
	t.Logf("%.0f allocs at 1000 rows, %.0f at 4000: %.3f allocs/existing row (ceiling %.2f)", small, large, slope, ceiling)
	if slope > ceiling {
		t.Errorf("INSERT: %.3f allocs per existing row of r, ceiling %.2f", slope, ceiling)
	}
}
