package service

import (
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"perm/internal/fuzz"
)

// TestCorpusOverHTTP replays the checked-in fuzz corpus through the HTTP
// service and demands row-for-row equality with direct library execution
// over the same seed. Files annotated "-- expect-error:" must fail over
// JSON with the same error class and the engine's message verbatim.
func TestCorpusOverHTTP(t *testing.T) {
	cases, err := fuzz.ReadCorpus(filepath.Join("..", "fuzz", "testdata", "fuzz-corpus"))
	if err != nil {
		t.Fatal(err)
	}
	direct := fuzz.NewDB(1)
	s := New(Config{DB: fuzz.NewDB(1)})
	ts := httptest.NewServer(s)
	defer ts.Close()

	for _, c := range cases {
		t.Run(c.Name, func(t *testing.T) {
			query, expectErr := c.Query, c.ExpectErr
			queries := []string{query}
			upper := strings.ToUpper(query)
			if expectErr == "" && strings.HasPrefix(query, "SELECT ") &&
				!strings.Contains(upper, "LIMIT") && !strings.Contains(upper, "OFFSET") {
				queries = append(queries, "SELECT PROVENANCE "+strings.TrimPrefix(query, "SELECT "))
			}
			for _, q := range queries {
				status, out := post(t, ts.URL+"/query", map[string]any{"query": q})
				want, wantErr := direct.Query(q)
				if wantErr != nil {
					if status == 200 || out.Error == nil {
						t.Fatalf("library errored (%v) but service returned %d\n%s", wantErr, status, q)
					}
					if out.Error.Message != wantErr.Error() {
						t.Fatalf("error text diverged:\nservice: %s\nlibrary: %s\n%s", out.Error.Message, wantErr, q)
					}
					wantBody, _ := classify(nil, wantErr)
					if out.Error.Class != wantBody.Class {
						t.Fatalf("error class diverged: service %s, library %s\n%s", out.Error.Class, wantBody.Class, q)
					}
					if expectErr != "" && !strings.Contains(out.Error.Message, expectErr) {
						t.Fatalf("error %q does not contain %q", out.Error.Message, expectErr)
					}
					continue
				}
				if expectErr != "" {
					t.Fatalf("expected an error containing %q, got success over both paths\n%s", expectErr, q)
				}
				if status != 200 {
					t.Fatalf("service status %d (%+v) but library succeeded\n%s", status, out.Error, q)
				}
				if msg := sameResult(want, out); msg != "" {
					t.Fatalf("%s\n%s", msg, q)
				}
			}
		})
	}
}
