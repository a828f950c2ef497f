package sql

import (
	"strings"
	"testing"

	"perm/internal/algebra"
	"perm/internal/catalog"
	"perm/internal/eval"
	"perm/internal/rel"
	"perm/internal/rewrite"
	"perm/internal/schema"
	"perm/internal/types"
)

func ints(vals ...int64) rel.Tuple {
	t := make(rel.Tuple, len(vals))
	for i, v := range vals {
		t[i] = types.NewInt(v)
	}
	return t
}

func testDB() *catalog.Catalog {
	c := catalog.New()
	c.Register("r", rel.FromTuples(schema.New("", "a", "b"), ints(1, 1), ints(2, 1), ints(3, 2)))
	c.Register("s", rel.FromTuples(schema.New("", "c", "d"), ints(1, 3), ints(2, 4), ints(4, 5)))
	return c
}

func query(t *testing.T, c *catalog.Catalog, q string) *rel.Relation {
	t.Helper()
	tr, err := Compile(c, q)
	if err != nil {
		t.Fatalf("compile %q: %v", q, err)
	}
	out, err := eval.New(c).Eval(tr.Plan)
	if err != nil {
		t.Fatalf("eval %q: %v\nplan:\n%s", q, err, algebra.Indent(tr.Plan))
	}
	return out
}

// --- lexer ---

func TestLexBasics(t *testing.T) {
	toks, err := lex("SELECT a, 'it''s' FROM r -- comment\nWHERE x <= 1.5;")
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tk := range toks {
		if tk.kind != tokEOF {
			texts = append(texts, tk.text)
		}
	}
	want := "SELECT a , it's FROM r WHERE x <= 1.5 ;"
	if got := strings.Join(texts, " "); got != want {
		t.Errorf("lex = %q, want %q", got, want)
	}
}

// lexErrors pins every lexical error's message and byte position, as the
// lexer has always reported them.
var lexErrors = []struct{ input, err string }{
	{`'abc`, `sql: unterminated string literal at position 4`},
	{`SELECT a FROM r WHERE b = 'it''s`, `sql: unterminated string literal at position 32`},
	{`SELECT @`, `sql: unexpected character '@' at position 8`},
	{`SELECT "x" FROM r`, `sql: unexpected character '"' at position 8`},
	{`SELECT a ! b FROM r`, `sql: unexpected character '!' at position 10`},
	{"SELECT caf\xc9 FROM r WHERE b = @", `sql: unexpected character '@' at position 30`},
	// The parse fails at FROM; the lexical error past it is what is reported.
	{`SELECT FROM WHERE @`, `sql: unexpected character '@' at position 19`},
	{`CREATE TABLE w (k int) @`, `sql: unexpected character '@' at position 24`},
	{`INSERT INTO r VALUES (1, 'x)`, `sql: unterminated string literal at position 28`},
	{`SELECT a FROM r; 'x`, `sql: unterminated string literal at position 19`},
}

func TestLexErrors(t *testing.T) {
	for _, c := range lexErrors {
		_, _, _, shapeErr := new(Lexed).Shape(c.input, nil)
		_, parseErr := Parse(c.input)
		_, stmtErr := ParseStatement(c.input)
		for _, err := range []error{shapeErr, parseErr, stmtErr} {
			if err == nil || err.Error() != c.err {
				t.Errorf("%q: %v, want %s", c.input, err, c.err)
			}
		}
	}
}

// --- parser ---

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT a FROM",
		"SELECT a FROM r WHERE",
		"SELECT a FROM r GROUP a",
		"SELECT a FROM r LIMIT x",
		"SELECT a FROM (SELECT b FROM s)", // missing alias
		"SELECT a FROM r extra junk here",
		"SELECT a FROM r WHERE a IN ()",
		"SELECT a FROM r WHERE a NOT 5",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) should fail", q)
		}
	}
}

func TestParseProvenanceFlag(t *testing.T) {
	stmt, err := Parse("SELECT PROVENANCE a FROM r")
	if err != nil {
		t.Fatal(err)
	}
	if !stmt.Left.Provenance {
		t.Error("PROVENANCE flag not set")
	}
	stmt, err = Parse("SELECT a FROM r")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.Left.Provenance {
		t.Error("PROVENANCE flag set unexpectedly")
	}
}

func TestParseQuantifiersAndIn(t *testing.T) {
	stmt, err := Parse("SELECT * FROM r WHERE a = ANY (SELECT c FROM s) AND b NOT IN (SELECT d FROM s) AND a <> SOME (SELECT c FROM s)")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.Left.Where == nil {
		t.Fatal("missing WHERE")
	}
}

// --- end to end ---

func TestSimpleSelect(t *testing.T) {
	c := testDB()
	out := query(t, c, "SELECT a, b FROM r WHERE a >= 2")
	want := rel.FromTuples(out.Schema, ints(2, 1), ints(3, 2))
	if !out.Equal(want) {
		t.Errorf("got %s", out)
	}
}

func TestSelectStarAndAlias(t *testing.T) {
	c := testDB()
	out := query(t, c, "SELECT * FROM r AS x WHERE x.a = 1")
	if out.Card() != 1 || out.Schema.Len() != 2 {
		t.Errorf("got %s", out)
	}
}

func TestExpressionsAndAliases(t *testing.T) {
	c := testDB()
	out := query(t, c, "SELECT a + b AS s, a * 2 AS dbl FROM r WHERE a BETWEEN 1 AND 2")
	want := rel.FromTuples(out.Schema, ints(2, 2), ints(3, 4))
	if !out.Equal(want) {
		t.Errorf("got %s", out)
	}
	if out.Schema.Attrs[0].Name != "s" || out.Schema.Attrs[1].Name != "dbl" {
		t.Errorf("schema = %s", out.Schema)
	}
}

func TestJoinSyntax(t *testing.T) {
	c := testDB()
	out := query(t, c, "SELECT a, d FROM r JOIN s ON a = c")
	want := rel.FromTuples(out.Schema, ints(1, 3), ints(2, 4))
	if !out.Equal(want) {
		t.Errorf("inner join: %s", out)
	}
	out = query(t, c, "SELECT a, d FROM r LEFT JOIN s ON a = c")
	if out.Card() != 3 {
		t.Errorf("left join card = %d", out.Card())
	}
}

func TestImplicitCrossJoin(t *testing.T) {
	c := testDB()
	out := query(t, c, "SELECT a, c FROM r, s WHERE a = c")
	want := rel.FromTuples(out.Schema, ints(1, 1), ints(2, 2))
	if !out.Equal(want) {
		t.Errorf("got %s", out)
	}
}

func TestGroupByHaving(t *testing.T) {
	c := testDB()
	out := query(t, c, "SELECT b, sum(a) AS total FROM r GROUP BY b HAVING sum(a) > 2")
	want := rel.FromTuples(out.Schema, ints(1, 3), ints(2, 3))
	if !out.Equal(want) {
		t.Errorf("got %s", out)
	}
}

func TestAggregatesWithoutGroupBy(t *testing.T) {
	c := testDB()
	out := query(t, c, "SELECT count(*) AS n, min(a) AS mn, max(a) AS mx, avg(a) AS av FROM r")
	if out.Card() != 1 {
		t.Fatalf("card = %d", out.Card())
	}
	want := rel.Tuple{types.NewInt(3), types.NewInt(1), types.NewInt(3), types.NewFloat(2)}
	if out.Count(want) != 1 {
		t.Errorf("got %s", out)
	}
}

func TestCountDistinct(t *testing.T) {
	c := testDB()
	out := query(t, c, "SELECT count(DISTINCT b) AS n FROM r")
	if out.Count(ints(2)) != 1 {
		t.Errorf("count(distinct b) = %s", out)
	}
}

func TestOrderByLimit(t *testing.T) {
	c := testDB()
	out := query(t, c, "SELECT a FROM r ORDER BY a DESC LIMIT 2")
	want := rel.FromTuples(out.Schema, ints(3), ints(2))
	if !out.Equal(want) {
		t.Errorf("got %s", out)
	}
}

func TestDistinctSelect(t *testing.T) {
	c := testDB()
	out := query(t, c, "SELECT DISTINCT b FROM r")
	want := rel.FromTuples(out.Schema, ints(1), ints(2))
	if !out.Equal(want) {
		t.Errorf("got %s", out)
	}
}

func TestInListAndNot(t *testing.T) {
	c := testDB()
	out := query(t, c, "SELECT a FROM r WHERE a IN (1, 3)")
	want := rel.FromTuples(out.Schema, ints(1), ints(3))
	if !out.Equal(want) {
		t.Errorf("IN list: %s", out)
	}
	out = query(t, c, "SELECT a FROM r WHERE a NOT IN (1, 3)")
	want = rel.FromTuples(out.Schema, ints(2))
	if !out.Equal(want) {
		t.Errorf("NOT IN list: %s", out)
	}
}

func TestSublinksEndToEnd(t *testing.T) {
	c := testDB()
	cases := []struct {
		q    string
		want []rel.Tuple
	}{
		{"SELECT a FROM r WHERE a = ANY (SELECT c FROM s)", []rel.Tuple{ints(1), ints(2)}},
		{"SELECT a FROM r WHERE a IN (SELECT c FROM s)", []rel.Tuple{ints(1), ints(2)}},
		{"SELECT a FROM r WHERE a NOT IN (SELECT c FROM s)", []rel.Tuple{ints(3)}},
		{"SELECT c FROM s WHERE c > ALL (SELECT a FROM r)", []rel.Tuple{ints(4)}},
		{"SELECT a FROM r WHERE EXISTS (SELECT * FROM s WHERE c = a)", []rel.Tuple{ints(1), ints(2)}},
		{"SELECT a FROM r WHERE NOT EXISTS (SELECT * FROM s WHERE c = a)", []rel.Tuple{ints(3)}},
		{"SELECT a FROM r WHERE a = (SELECT min(c) FROM s)", []rel.Tuple{ints(1)}},
		{"SELECT a FROM r WHERE b < (SELECT max(d) FROM s WHERE c = a)", []rel.Tuple{ints(1), ints(2)}},
	}
	for _, tc := range cases {
		out := query(t, c, tc.q)
		want := rel.FromTuples(out.Schema, tc.want...)
		if !out.Equal(want) {
			t.Errorf("%s = %s, want %s", tc.q, out, want)
		}
	}
}

func TestFromSubquery(t *testing.T) {
	c := testDB()
	out := query(t, c, "SELECT v.t FROM (SELECT b, sum(a) AS t FROM r GROUP BY b) AS v WHERE v.t > 2")
	want := rel.FromTuples(out.Schema, ints(3), ints(3))
	if !out.Equal(want) {
		t.Errorf("got %s", out)
	}
}

func TestSetOperations(t *testing.T) {
	c := testDB()
	out := query(t, c, "SELECT a FROM r UNION SELECT c FROM s")
	want := rel.FromTuples(out.Schema, ints(1), ints(2), ints(3), ints(4))
	if !out.Equal(want) {
		t.Errorf("union: %s", out)
	}
	out = query(t, c, "SELECT a FROM r INTERSECT SELECT c FROM s")
	want = rel.FromTuples(out.Schema, ints(1), ints(2))
	if !out.Equal(want) {
		t.Errorf("intersect: %s", out)
	}
	out = query(t, c, "SELECT a FROM r EXCEPT SELECT c FROM s")
	want = rel.FromTuples(out.Schema, ints(3))
	if !out.Equal(want) {
		t.Errorf("except: %s", out)
	}
	out = query(t, c, "SELECT b FROM r UNION ALL SELECT b FROM r")
	if out.Card() != 6 {
		t.Errorf("union all card = %d", out.Card())
	}
}

func TestCorrelatedNestedSQL(t *testing.T) {
	c := testDB()
	// Nested and correlated: which r.a values have an s partner whose d
	// exceeds every b of rows sharing that partner's c?
	q := `SELECT a FROM r WHERE EXISTS (
	        SELECT * FROM s WHERE c = a AND d > ALL (SELECT b FROM r WHERE a = c))`
	out := query(t, c, q)
	want := rel.FromTuples(out.Schema, ints(1), ints(2))
	if !out.Equal(want) {
		t.Errorf("got %s", out)
	}
}

func TestProvenanceOnlyTopLevel(t *testing.T) {
	c := testDB()
	_, err := Compile(c, "SELECT a FROM r WHERE a IN (SELECT PROVENANCE c FROM s)")
	if err == nil {
		t.Error("nested PROVENANCE should be rejected")
	}
	_, err = Compile(c, "SELECT a FROM r UNION SELECT PROVENANCE c FROM s")
	if err == nil {
		t.Error("PROVENANCE on the right of a set op should be rejected")
	}
}

// TestSQLProvenancePipeline runs the full pipeline of §4.1: the extended-SQL
// query from the paper, parsed, translated, rewritten and executed.
func TestSQLProvenancePipeline(t *testing.T) {
	c := testDB()
	tr, err := Compile(c, "SELECT PROVENANCE * FROM r WHERE a = 3 AND b = ANY (SELECT c FROM s)")
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Provenance {
		t.Fatal("provenance flag lost")
	}
	res, err := rewrite.Rewrite(tr.Plan, rewrite.Gen)
	if err != nil {
		t.Fatal(err)
	}
	out, err := eval.New(c).Eval(res.Plan)
	if err != nil {
		t.Fatal(err)
	}
	// (3,2) qualifies (b=2 ∈ S.c); provenance: R(3,2) and S(2,4).
	want := rel.FromTuples(out.Schema, ints(3, 2, 3, 2, 2, 4))
	if !out.Equal(want) {
		t.Errorf("pipeline output = %s, want %s", out, want)
	}
}

func TestBetweenAndNegations(t *testing.T) {
	c := testDB()
	out := query(t, c, "SELECT a FROM r WHERE a NOT BETWEEN 2 AND 3")
	want := rel.FromTuples(out.Schema, ints(1))
	if !out.Equal(want) {
		t.Errorf("NOT BETWEEN: %s", out)
	}
	out = query(t, c, "SELECT a FROM r WHERE NOT (a = 1 OR a = 2)")
	want = rel.FromTuples(out.Schema, ints(3))
	if !out.Equal(want) {
		t.Errorf("NOT(...): %s", out)
	}
}

func TestUnaryMinusAndFloats(t *testing.T) {
	c := testDB()
	out := query(t, c, "SELECT a FROM r WHERE a > -1 AND a < 2.5")
	want := rel.FromTuples(out.Schema, ints(1), ints(2))
	if !out.Equal(want) {
		t.Errorf("got %s", out)
	}
	out = query(t, c, "SELECT -a AS neg FROM r WHERE a = 1")
	if out.Count(ints(-1)) != 1 {
		t.Errorf("unary minus: %s", out)
	}
}

func TestIsNotNullAndSome(t *testing.T) {
	c := catalog.New()
	c.Register("t", rel.FromTuples(schema.New("", "a"), ints(1), rel.Tuple{types.Null()}))
	out := query(t, c, "SELECT a FROM t WHERE a IS NOT NULL")
	if out.Card() != 1 {
		t.Errorf("IS NOT NULL: %s", out)
	}
	c2 := testDB()
	out = query(t, c2, "SELECT a FROM r WHERE a = SOME (SELECT c FROM s)")
	if out.Card() != 2 {
		t.Errorf("SOME: %s", out)
	}
}

func TestAggregateExpressionArguments(t *testing.T) {
	c := testDB()
	out := query(t, c, "SELECT sum(a * b) AS s, sum(a) + sum(b) AS t FROM r")
	want := rel.Tuple{types.NewInt(9), types.NewInt(10)}
	if out.Count(want) != 1 {
		t.Errorf("aggregate expressions: %s", out)
	}
	// The same aggregate used twice is computed once (dedup by structure).
	tr, err := Compile(c, "SELECT sum(a) AS x, sum(a) AS y FROM r")
	if err != nil {
		t.Fatal(err)
	}
	var aggCount int
	algebra.Walk(tr.Plan, func(op algebra.Op) bool {
		if a, ok := op.(*algebra.Aggregate); ok {
			aggCount = len(a.Aggs)
		}
		return true
	})
	if aggCount != 1 {
		t.Errorf("duplicate aggregates not merged: %d", aggCount)
	}
}

func TestGroupByExpression(t *testing.T) {
	c := testDB()
	out := query(t, c, "SELECT a % 2 AS parity, count(*) AS n FROM r GROUP BY a % 2 ORDER BY parity")
	want := rel.FromTuples(out.Schema, ints(0, 1), ints(1, 2))
	if !out.Equal(want) {
		t.Errorf("group by expression: %s", out)
	}
}

func TestGroupBySublink(t *testing.T) {
	// §2.2: sublinks in GROUP BY are simulated with a projection before
	// aggregation. Group r rows by whether a appears in S.c.
	c := testDB()
	q := `SELECT count(*) AS n FROM r GROUP BY a IN (SELECT c FROM s) ORDER BY n`
	out := query(t, c, q)
	// a ∈ {1,2} are in S.c, a=3 is not → groups of sizes 2 and 1.
	want := rel.FromTuples(out.Schema, ints(1), ints(2))
	if !out.Equal(want) {
		t.Errorf("group-by-sublink = %s", out)
	}
	// And the provenance rewrite handles the resulting projection sublink.
	tr, err := Compile(c, q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rewrite.Rewrite(tr.Plan, rewrite.Gen)
	if err != nil {
		t.Fatal(err)
	}
	pout, err := eval.New(c).Eval(res.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if pout.Empty() {
		t.Error("provenance of group-by-sublink query is empty")
	}
}

func TestStringComparisons(t *testing.T) {
	c := catalog.New()
	c.Register("w", rel.FromTuples(schema.New("", "name"),
		rel.Tuple{types.NewString("alpha")}, rel.Tuple{types.NewString("beta")}))
	out := query(t, c, "SELECT name FROM w WHERE name = 'beta'")
	if out.Card() != 1 {
		t.Errorf("string equality: %s", out)
	}
	out = query(t, c, "SELECT name FROM w WHERE name < 'b' ORDER BY name")
	if out.Card() != 1 {
		t.Errorf("string ordering: %s", out)
	}
}

func TestTranslateErrors(t *testing.T) {
	c := testDB()
	bad := []string{
		"SELECT a FROM nosuch",
		"SELECT zz(a) FROM r",
		"SELECT sum(a, b) FROM r",
		"SELECT a FROM r WHERE sum(a) > 1",
		"SELECT a FROM r HAVING a > 1",
		"SELECT a FROM r WHERE a IN (SELECT c, d FROM s)",
		"SELECT a FROM r WHERE a > (SELECT c, d FROM s)",
		"SELECT a FROM r UNION SELECT c, d FROM s",
		"SELECT * FROM r GROUP BY a",
	}
	for _, q := range bad {
		if _, err := Compile(c, q); err == nil {
			t.Errorf("Compile(%q) should fail", q)
		}
	}
}
