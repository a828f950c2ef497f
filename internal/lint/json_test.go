package lint

import (
	"bytes"
	"flag"
	"go/token"
	"os"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from current output")

// TestWriteJSONGolden pins the machine-readable output format byte for
// byte: editor integrations and the CI annotation step parse it.
func TestWriteJSONGolden(t *testing.T) {
	diags := []Diagnostic{
		{
			Analyzer: "deferclose",
			Pos:      token.Position{Filename: "internal/catalog/csv.go", Line: 42, Column: 3},
			Message:  "closeable resource (*os.File) f is never released; defer the release right after acquiring it",
		},
		{
			Analyzer: "ctxflow",
			Pos:      token.Position{Filename: "internal/eval/eval.go", Line: 7, Column: 12},
			Message:  "context.Background() severs the request cancellation chain; accept a context.Context parameter instead",
		},
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, diags); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	const golden = "testdata/json-golden.txt"
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatalf("writing golden: %v", err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("JSON output drifted from %s:\ngot:\n%s\nwant:\n%s", golden, buf.Bytes(), want)
	}
}

// TestWriteJSONEmpty: zero findings must encode as an empty array, never
// null, so `jq length` and similar consumers keep working.
func TestWriteJSONEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, nil); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if got := buf.String(); got != "[]\n" {
		t.Errorf("empty findings encode as %q, want []", got)
	}
}
