package sql

import (
	"bytes"
	"slices"
	"testing"

	"perm/internal/catalog"
)

// FuzzParse asserts the parser never panics and either returns a statement
// or an error, for arbitrary input, and that the shape of any input that
// scans survives Unlift: the statement Unlift spells from it scans back to
// the same family, pattern and parameters. Run longer with:
//
//	go test -fuzz FuzzParse ./internal/sql
func FuzzParse(f *testing.F) {
	seeds := []string{
		"SELECT a FROM r",
		"SELECT PROVENANCE * FROM r WHERE a = ANY (SELECT c FROM s)",
		"SELECT a, sum(b) AS s FROM r GROUP BY a HAVING sum(b) > 1 ORDER BY s DESC LIMIT 3",
		"SELECT * FROM (SELECT a FROM r) AS x LEFT JOIN s ON x.a = c",
		"SELECT a FROM r WHERE NOT EXISTS (SELECT * FROM s WHERE c = a) AND b BETWEEN 1 AND 2",
		"SELECT a FROM r UNION ALL SELECT c FROM s INTERSECT SELECT d FROM s",
		"CREATE VIEW v AS SELECT a FROM r; garbage",
		"SELECT 'it''s' FROM r -- comment",
		"SELECT a FROM r WHERE a IN (1, 2.5, 'x', NULL)",
		"((((((((", "SELECT", ";;;", "\\x00", "SELECT a FROM r WHERE a <",
		// TestLiftShapes and TestUnliftRoundTrip
		`SELECT a FROM r WHERE a = 1 AND b = 'x'`,
		`select A from R where A = 1.5`,
		`SELECT a+1 FROM r GROUP BY a+1`,
		`SELECT a+1 FROM r GROUP BY a+2`,
		`SELECT a FROM r WHERE a IN (3, 5, 3) AND b = 'q' AND c = 'q'`,
		`SELECT a FROM r WHERE a > 2 LIMIT 3 OFFSET 4`,
		`SELECT a FROM r WHERE a > 3 AND b > 4 LIMIT 3`,
		`SELECT a, b FROM r ORDER BY 2, (1) DESC`,
		`SELECT a, count(*) FROM r GROUP BY 1 ORDER BY -1`,
		`SELECT a FROM r ORDER BY a * 2, 3 - a`,
		`SELECT 5, 'k', -7, a + 5, substr(s, 2, 6) FROM r`,
		`SELECT a FROM r WHERE EXISTS (SELECT 1 FROM s WHERE c = 1)`,
		`SELECT a FROM r WHERE a > 0 AND b > 0.0 AND c > 7`,
		`SELECT a FROM r WHERE a = 2 AND b = 2.0 AND c = 3.0`,
		`SELECT CAST(a AS text) FROM r WHERE b IS NULL OR c = TRUE OR d = 'TRUE'`,
		`SELECT 'a b', 'it''s' FROM r`,
		`SELECT a FROM r WHERE a < 99999999999999999999`,
		`SELECT a, 'k?i1' FROM r WHERE s = 'it''s' AND b IN (3, 4.5, 3) AND t LIKE '?s%' ORDER BY 2 LIMIT 3`,
		`SELECT a FROM r WHERE a < 99999999999999999999 AND b = 2.0 AND c = 7`,
		`SELECT a FROM r WHERE s = '' AND x = 1.25`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		st, err := ParseStatement(input)
		if err == nil && st == nil {
			t.Fatal("nil statement without error")
		}
		// Whatever parses must also survive translation attempts without
		// panics (errors are fine — unknown relations etc.).
		if err == nil && st.Query != nil {
			_, _ = Compile(catalog.New(), input)
		}

		var l, back Lexed
		family, pattern, params, err := l.Shape(input, nil)
		if err != nil {
			return
		}
		respelt := Unlift(family, pattern, params)
		family2, pattern2, params2, err := back.Shape(respelt, nil)
		if err != nil || !bytes.Equal(family2, family) || !bytes.Equal(pattern2, pattern) || !slices.Equal(params2, params) {
			t.Fatalf("%q\nrespelt as %q: %v\nshape %q %v %v\nwant  %q %v %v", input, respelt, err, family2, pattern2, params2, family, pattern, params)
		}
	})
}
