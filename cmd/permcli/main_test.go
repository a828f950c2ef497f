package main

import (
	"strings"
	"testing"

	"perm"
)

func demoDB(t *testing.T) *perm.DB {
	t.Helper()
	db := perm.Open()
	if err := db.Register("r", []string{"a", "b"}, [][]any{{1, 1}, {2, 1}, {3, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := db.Register("s", []string{"c", "d"}, [][]any{{1, 3}, {2, 4}, {4, 5}}); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestMetaCommands(t *testing.T) {
	db := demoDB(t)
	strategy := perm.Auto

	var sb strings.Builder
	if !meta(&sb, db, `\d`, &strategy) {
		t.Fatal(`\d should not quit`)
	}
	if !strings.Contains(sb.String(), "r") || !strings.Contains(sb.String(), "s") {
		t.Errorf(`\d output: %q`, sb.String())
	}

	sb.Reset()
	meta(&sb, db, `\strategy Gen`, &strategy)
	if strategy != perm.Gen {
		t.Errorf("strategy = %v", strategy)
	}
	sb.Reset()
	meta(&sb, db, `\strategy Bogus`, &strategy)
	if !strings.Contains(sb.String(), "unknown strategy") {
		t.Errorf("bad strategy output: %q", sb.String())
	}

	sb.Reset()
	meta(&sb, db, `\explain SELECT a FROM r;`, &strategy)
	if !strings.Contains(sb.String(), "Scan r") {
		t.Errorf(`\explain output: %q`, sb.String())
	}

	sb.Reset()
	meta(&sb, db, `\advise SELECT a FROM r WHERE a = ANY (SELECT c FROM s);`, &strategy)
	if !strings.Contains(sb.String(), "cost") {
		t.Errorf(`\advise output: %q`, sb.String())
	}

	for _, cmd := range []string{`\nonsense`, `\parallel 4`} {
		sb.Reset()
		meta(&sb, db, cmd, &strategy)
		if !strings.Contains(sb.String(), "meta commands") {
			t.Errorf("%s: help output: %q", cmd, sb.String())
		}
	}

	if meta(&sb, db, `\q`, &strategy) {
		t.Error(`\q should quit`)
	}
}

func TestRunQueryOutput(t *testing.T) {
	db := demoDB(t)
	var sb strings.Builder
	runQuery(&sb, db, "SELECT PROVENANCE a FROM r WHERE a = 1;", perm.Auto)
	out := sb.String()
	for _, want := range []string{"prov_r_a", "(1 rows)", "sources: r"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}

	sb.Reset()
	runQuery(&sb, db, "CREATE VIEW v AS SELECT a FROM r;", perm.Auto)
	if !strings.Contains(sb.String(), "ok") {
		t.Errorf("view creation output: %q", sb.String())
	}
	sb.Reset()
	runQuery(&sb, db, "SELECT * FROM v WHERE a = 2;", perm.Auto)
	if !strings.Contains(sb.String(), "(1 rows)") {
		t.Errorf("view query output: %q", sb.String())
	}

	sb.Reset()
	runQuery(&sb, db, "SELEC broken;", perm.Auto)
	if !strings.Contains(sb.String(), "error:") {
		t.Errorf("error output: %q", sb.String())
	}
}
