package sql

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"perm/internal/tpch"
	"perm/internal/types"
)

// shapeOf renders a statement's shape for the tables below: the family with
// each placeholder followed by its slot, and the parameter vector.
func shapeOf(t *testing.T, query string) (shape, params string) {
	t.Helper()
	l, err := Lex(query)
	if err != nil {
		t.Fatalf("%s: %v", query, err)
	}
	family, pattern, vals := l.Lift(nil)
	var b strings.Builder
	for i := 0; i < len(family); i++ {
		b.WriteByte(family[i])
		if family[i] == '?' {
			i++
			fmt.Fprintf(&b, "%c%d", family[i], pattern[0])
			pattern = pattern[1:]
		}
	}
	if len(pattern) != 0 {
		t.Fatalf("%s: %d pattern bytes left over", query, len(pattern))
	}
	return b.String(), fmt.Sprint(vals)
}

// TestLiftShapes pins what is lifted and what is not: one row per rule of
// Lift's documentation.
func TestLiftShapes(t *testing.T) {
	for _, tc := range []struct{ query, shape, params string }{
		// Plain value literals are lifted, one slot per distinct value.
		{`SELECT a FROM r WHERE a = 1 AND b = 'x'`,
			`SELECT a FROM r WHERE a = ?i1 AND b = ?s2`, `[1 x]`},
		{`select A from R where A = 1.5`,
			`SELECT a FROM r WHERE a = ?f1`, `[1.5]`},
		// Equal literals share a slot; the pattern is part of the shape.
		{`SELECT a+1 FROM r GROUP BY a+1`,
			`SELECT a + ?i1 FROM r GROUP BY a + ?i1`, `[1]`},
		{`SELECT a+1 FROM r GROUP BY a+2`,
			`SELECT a + ?i1 FROM r GROUP BY a + ?i2`, `[1 2]`},
		{`SELECT a FROM r WHERE a IN (3, 5, 3) AND b = 'q' AND c = 'q'`,
			`SELECT a FROM r WHERE a IN(?i1,?i2,?i1)AND b = ?s3 AND c = ?s3`, `[3 5 q]`},
		// LIMIT and OFFSET counts stay.
		{`SELECT a FROM r WHERE a > 2 LIMIT 3 OFFSET 4`,
			`SELECT a FROM r WHERE a > ?i1 LIMIT 3 OFFSET 4`, `[2]`},
		// ... and keep an equal literal elsewhere with them.
		{`SELECT a FROM r WHERE a > 3 AND b > 4 LIMIT 3`,
			`SELECT a FROM r WHERE a > 3 AND b > ?i1 LIMIT 3`, `[4]`},
		// Ordinals stay, behind parentheses and minus signs too.
		{`SELECT a, b FROM r ORDER BY 2, (1) DESC`,
			`SELECT a,b FROM r ORDER BY 2,(1)DESC`, `[]`},
		{`SELECT a, count(*) FROM r GROUP BY 1 ORDER BY -1`,
			`SELECT a,count(*)FROM r GROUP BY 1 ORDER BY - 1`, `[]`},
		// Literals inside a key expression are lifted (unless they begin it).
		{`SELECT a FROM r ORDER BY a * 2, 3 - a`,
			`SELECT a FROM r ORDER BY a * ?i1,3 - a`, `[2]`},
		// A select-list item that begins with a literal keeps it.
		{`SELECT 5, 'k', -7, a + 5, substr(s, 2, 6) FROM r`,
			`SELECT 5,'k',- 7,a + 5,substr(s,?i1,?i2)FROM r`, `[2 6]`},
		{`SELECT a FROM r WHERE EXISTS (SELECT 1 FROM s WHERE c = 1)`,
			`SELECT a FROM r WHERE EXISTS(SELECT 1 FROM s WHERE c = 1)`, `[]`},
		// Zeros stay: -x is lowered to 0 - x.
		{`SELECT a FROM r WHERE a > 0 AND b > 0.0 AND c > 7`,
			`SELECT a FROM r WHERE a > 0 AND b > 0.0 AND c > ?i1`, `[7]`},
		// An integer and a float of one value stay, both.
		{`SELECT a FROM r WHERE a = 2 AND b = 2.0 AND c = 3.0`,
			`SELECT a FROM r WHERE a = 2 AND b = 2.0 AND c = ?f1`, `[3]`},
		// Keywords and type names are not literals.
		{`SELECT CAST(a AS text) FROM r WHERE b IS NULL OR c = TRUE OR d = 'TRUE'`,
			`SELECT CAST(a AS text)FROM r WHERE b IS NULL OR c = TRUE OR d = ?s1`, `[TRUE]`},
		// Strings that stay are quoted, so that they cannot pass for tokens.
		{`SELECT 'a b', 'it''s' FROM r`,
			`SELECT 'a b','it''s' FROM r`, `[]`},
		// A number too large for an integer is a float; one too large for a
		// float stands for itself and fails in the parser.
		{`SELECT a FROM r WHERE a < 99999999999999999999`,
			`SELECT a FROM r WHERE a < ?f1`, `[1e+20]`},
	} {
		shape, params := shapeOf(t, tc.query)
		if shape != tc.shape || params != tc.params {
			t.Errorf("%s\n shape  %s %s\n want   %s %s", tc.query, shape, params, tc.shape, tc.params)
		}
	}
}

// TestUnliftRoundTrip: Unlift spells a statement that lifts back to the
// shape and values it was given.
func TestUnliftRoundTrip(t *testing.T) {
	for _, query := range []string{
		`SELECT a, 'k?i1' FROM r WHERE s = 'it''s' AND b IN (3, 4.5, 3) AND t LIKE '?s%' ORDER BY 2 LIMIT 3`,
		`SELECT a FROM r WHERE a < 99999999999999999999 AND b = 2.0 AND c = 7`,
		`SELECT a FROM r WHERE s = '' AND x = 1.25`,
	} {
		l, err := Lex(query)
		if err != nil {
			t.Fatal(err)
		}
		family, pattern, params := l.Lift(nil)
		respelt := Unlift(family, pattern, params)
		l2, err := Lex(respelt)
		if err != nil {
			t.Fatalf("%s\nrespelt as %s: %v", query, respelt, err)
		}
		family2, pattern2, params2 := l2.Lift(nil)
		if string(family2) != string(family) || string(pattern2) != string(pattern) || fmt.Sprint(params2) != fmt.Sprint(params) {
			t.Errorf("%s\nrespelt as %s\nshape %s %v %v, want %s %v %v", query, respelt, family2, pattern2, params2, family, pattern, params)
		}
	}
}

// TestLiftedQueryCompilesToParams: after Lift, Query yields ParamLit nodes
// exactly where the shape has placeholders, and without Lift none.
func TestLiftedQueryCompilesToParams(t *testing.T) {
	const query = `SELECT a, 9 FROM r WHERE b = 4 AND s = 'x' ORDER BY 2 LIMIT 4`
	count := func(lifted bool) (params, lits int) {
		l, err := Lex(query)
		if err != nil {
			t.Fatal(err)
		}
		if lifted {
			l.Lift(nil)
		}
		stmt, err := l.Query()
		if err != nil {
			t.Fatal(err)
		}
		sel := stmt.Left
		exprs := []Expr{sel.Where, sel.Cols[1].E, sel.OrderBy[0].E}
		for _, e := range exprs {
			WalkExprs(e, func(x Expr) bool {
				switch x.(type) {
				case ParamLit:
					params++
				case NumLit, StrLit:
					lits++
				}
				return true
			})
		}
		if sel.Limit != 4 {
			t.Errorf("LIMIT parsed as %d", sel.Limit)
		}
		return params, lits
	}
	if p, l := count(false); p != 0 || l != 4 {
		t.Errorf("unlifted: %d params, %d literals; want 0 and 4", p, l)
	}
	// b = 4 equals the LIMIT count and stays with it; only 'x' is lifted.
	if p, l := count(true); p != 1 || l != 3 {
		t.Errorf("lifted: %d params, %d literals; want 1 and 3", p, l)
	}
}

// TestLiftParamKinds: a parameter keeps the kind the parser would give the
// literal.
func TestLiftParamKinds(t *testing.T) {
	l, err := Lex(`SELECT a FROM r WHERE a = 7 AND b = 7.5 AND c = '7' AND d = 1.`)
	if err != nil {
		t.Fatal(err)
	}
	_, _, params := l.Lift(nil)
	want := []types.Kind{types.KindInt, types.KindFloat, types.KindString, types.KindFloat}
	if len(params) != len(want) {
		t.Fatalf("params = %v", params)
	}
	for i, k := range want {
		if params[i].Kind() != k {
			t.Errorf("param %d is %s, want %s", i+1, params[i].Kind(), k)
		}
	}
}

// Lex and Lift split Shape in two for the tests: Lex checks that a
// statement scans, and Lift computes its shape. Query after Lex alone
// parses every literal as itself.
func Lex(input string) (*Lexed, error) {
	l := new(Lexed)
	if _, _, _, err := l.Shape(input, nil); err != nil {
		return nil, err
	}
	l.slots = nil
	return l, nil
}

func (l *Lexed) Lift(dst []byte) (family, pattern []byte, params []types.Value) {
	family, pattern, params, _ = l.Shape(l.input, dst)
	return family, pattern, params
}

// lex collects the tokens the parser reads from the scanner.
func lex(input string) ([]token, error) {
	p := newParser(input, nil, nil)
	var toks []token
	for p.lexErr == nil {
		toks = append(toks, p.next())
		if toks[len(toks)-1].kind == tokEOF {
			return toks, nil
		}
	}
	return nil, p.lexErr
}

// TestLexFastPaths: the scanner folds case, recognises keywords in any case
// and slices identifiers in lower case and plain string literals out of the
// input.
func TestLexFastPaths(t *testing.T) {
	toks, err := lex(`Select "x"`)
	if err == nil {
		t.Fatalf("double quotes are not lexed, got %v", toks)
	}
	const query = `select Alpha, beta_2 from Tab where s = 'plain' and t = 'it''s' and n >= 10.5 oR x iS NULL`
	toks, err = lex(query)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, tk := range toks[:len(toks)-1] {
		got = append(got, tk.text)
	}
	want := `SELECT alpha , beta_2 FROM tab WHERE s = plain AND t = it's AND n >= 10.5 OR x IS NULL`
	if strings.Join(got, " ") != want {
		t.Errorf("lex = %q, want %q", strings.Join(got, " "), want)
	}
	if beta := toks[3].text; unsafe.StringData(beta) != unsafe.StringData(query[strings.Index(query, "beta"):]) {
		t.Error("a lower-case identifier is copied, not sliced")
	}
	// Words that are almost keywords are identifiers.
	toks, err = lex(`SELECT selects, fro, provenances, ina, i, _from FROM r`)
	if err != nil {
		t.Fatal(err)
	}
	for _, tk := range toks[1:12] {
		if tk.kind == tokKeyword {
			t.Errorf("%q lexed as a keyword", tk.text)
		}
	}
	// Bytes above ASCII are read as Latin-1, and folded so.
	toks, err = lex("SELECT CAF\xc9 FROM r")
	if err != nil || len(toks) != 5 || toks[1].kind != tokIdent || toks[1].text != "caf\xe9" {
		t.Errorf("latin-1 identifier: %v, %v", toks, err)
	}
}

// TestKeywords: every keyword is one in any case, and has its own entry of
// the table.
func TestKeywords(t *testing.T) {
	for _, kw := range keywords {
		for _, w := range []string{kw, strings.ToLower(kw), strings.ToLower(kw[:1]) + kw[1:]} {
			if got := keyword(w); got != kw {
				t.Errorf("keyword(%q) = %q, want %q", w, got, kw)
			}
		}
		if got := keyword(kw + "X"); got != "" {
			t.Errorf("keyword(%q) = %q, want none", kw+"X", got)
		}
	}
}

// TestShapeAllocatesNothing: reading a plan_bound statement — the 13 TPC-H
// templates, plain and under PROVENANCE — into buffers that already grew
// allocates nothing.
func TestShapeAllocatesNothing(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts differ under -race")
	}
	var l Lexed
	var buf []byte
	for _, q := range shapeTemplates(t, 7) {
		family, _, _, err := l.Shape(q, buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		buf = family[:0]
		if n := testing.AllocsPerRun(20, func() {
			family, _, _, _ = l.Shape(q, buf[:0])
		}); n != 0 {
			t.Errorf("Shape allocates %v times on\n%s", n, q)
		}
	}
}

// BenchmarkShape reads the plan_bound statements, instances 1 to 16, into
// reused buffers: the front end of a plan-cache hit.
func BenchmarkShape(b *testing.B) {
	var queries []string
	for inst := int64(1); inst <= 16; inst++ {
		queries = append(queries, shapeTemplates(b, inst)...)
	}
	var l Lexed
	var buf []byte
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		family, _, _, err := l.Shape(queries[i%len(queries)], buf[:0])
		if err != nil {
			b.Fatal(err)
		}
		buf = family[:0]
	}
}

// shapeTemplates is the plan_bound workload's 13 statements at one
// instance: TPC-H queries 2, 4, 11, 15, 16, 17, 20, 21 and 22, and 4, 11, 15
// and 16 under PROVENANCE.
func shapeTemplates(t testing.TB, instance int64) []string {
	t.Helper()
	var out []string
	for _, n := range []int{2, 4, 11, 15, 16, 17, 20, 21, 22, -4, -11, -15, -16} {
		q, err := tpch.QueryByNum(max(n, -n))
		if err != nil {
			t.Fatal(err)
		}
		text := q.Instance(instance)
		if n < 0 {
			text = strings.Replace(text, "SELECT", "SELECT PROVENANCE", 1)
		}
		out = append(out, text)
	}
	return out
}

// TestNumberValue: a number token with a dot is a float, parsed without an
// allocation; one without is an integer while it fits one, a float past.
func TestNumberValue(t *testing.T) {
	for _, c := range []struct {
		text string
		kind types.Kind
	}{{"7", types.KindInt}, {"0.05", types.KindFloat}, {"1.", types.KindFloat}, {".5", types.KindFloat}, {"99999999999999999999", types.KindFloat}} {
		if v, ok := numberValue(c.text); !ok || v.Kind() != c.kind {
			t.Errorf("numberValue(%q) = %v, %v; want a %v", c.text, v, ok, c.kind)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = numberValue("0.05") }); n != 0 {
		t.Errorf("numberValue(\"0.05\") allocates %v times, want 0", n)
	}
}
