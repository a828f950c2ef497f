package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"

	"perm"
	"perm/internal/synth"
)

// newGoldenServer builds a server over a small deterministic table
//
//	t1(a int, b string) = {(1,x), (2,y), (3,x)}
//
// unless cfg.DB is already set.
func newGoldenServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.DB == nil {
		db := perm.Open()
		if err := db.Register("t1", []string{"a", "b"}, [][]any{{1, "x"}, {2, "y"}, {3, "x"}}); err != nil {
			t.Fatal(err)
		}
		cfg.DB = db
	}
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

// newSynthServer builds a server over the synthetic workload relations
// r1, r2 (size rows each, attribute b uniform over [0, domain)).
func newSynthServer(t *testing.T, size, domain int, cfg Config) (*Server, *httptest.Server, synth.Workload) {
	t.Helper()
	db := perm.Open()
	wl := synth.Workload{InputSize: size, SublinkSize: size, Seed: 1, Domain: domain}
	registerSynth(t, db, wl)
	cfg.DB = db
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts, wl
}

// registerSynth adds wl's relations r1 and r2 to db's base catalog.
func registerSynth(t *testing.T, db *perm.DB, wl synth.Workload) {
	t.Helper()
	cat := wl.Catalog()
	for _, name := range []string{"r1", "r2"} {
		r, err := cat.Relation(name)
		if err != nil {
			t.Fatal(err)
		}
		db.Catalog().Register(name, r)
	}
}

// slowStatement runs for seconds over newSynthServer's r1 (8 M rows at 200
// rows of r1), and no executor cache or provenance rewrite shortens it: r1's
// three-way self cross product under count(*).
const slowStatement = "SELECT count(*) FROM r1 AS x, r1 AS y, r1 AS z"

// reply is the decoded union of every endpoint's response body.
type reply struct {
	QueryResponse
	OK     bool           `json:"ok"`
	Result *QueryResponse `json:"result"`
	Advice []AdviceJSON   `json:"advice"`
	Error  *ErrorJSON     `json:"error"`
	Status string         `json:"status"`
}

// post sends one JSON request and decodes the response (numbers kept as
// json.Number so rendering matches the library's %v output).
func post(t *testing.T, url string, body any) (int, reply) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	dec.UseNumber()
	var out reply
	if err := dec.Decode(&out); err != nil {
		t.Fatalf("POST %s: bad response JSON: %v", url, err)
	}
	return resp.StatusCode, out
}

// getStats reads GET /stats from the server at base.
func getStats(t *testing.T, base string) StatsResponse {
	t.Helper()
	resp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	return stats
}

// renderRows renders a row set to one comparable line per row.
func renderRows(rows [][]any) string {
	var b strings.Builder
	for i, row := range rows {
		if i > 0 {
			b.WriteString("; ")
		}
		for j, c := range row {
			if j > 0 {
				b.WriteString(" ")
			}
			b.WriteString(renderCell(c))
		}
	}
	return b.String()
}

func renderCell(v any) string {
	switch x := v.(type) {
	case nil:
		return "∅"
	case json.Number:
		return x.String()
	default:
		return fmt.Sprintf("%v", x)
	}
}

// cellEqual compares one direct-library cell with one JSON-decoded cell.
// Numbers compare numerically (JSON renders large floats differently than
// %v), everything else by rendered text.
func cellEqual(want, got any) bool {
	if want == nil || got == nil {
		return want == nil && got == nil
	}
	ws := fmt.Sprintf("%v", want)
	gs := renderCell(got)
	if ws == gs {
		return true
	}
	wf, werr := strconv.ParseFloat(ws, 64)
	gf, gerr := strconv.ParseFloat(gs, 64)
	return werr == nil && gerr == nil && wf == gf
}

// sameResult compares a direct library result with an HTTP response body
// row for row; the returned string is empty on agreement.
func sameResult(want *perm.Result, got reply) string {
	if strings.Join(want.Columns, "|") != strings.Join(got.Columns, "|") {
		return fmt.Sprintf("columns diverged: service %v, library %v", got.Columns, want.Columns)
	}
	if len(want.Rows) != len(got.Rows) {
		return fmt.Sprintf("row count diverged: service %d, library %d", len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		if len(want.Rows[i]) != len(got.Rows[i]) {
			return fmt.Sprintf("row %d width diverged", i)
		}
		for j := range want.Rows[i] {
			if !cellEqual(want.Rows[i][j], got.Rows[i][j]) {
				return fmt.Sprintf("row %d col %d diverged: service %v, library %v",
					i, j, got.Rows[i][j], want.Rows[i][j])
			}
		}
	}
	return ""
}

func TestQueryEndpoint(t *testing.T) {
	_, ts := newGoldenServer(t, Config{})
	cases := []struct {
		name     string
		body     map[string]any
		status   int
		wantCols string // "|"-joined; "" skips the check
		wantRows string // renderRows form; checked when status is 200
		class    string
		position int
	}{
		{
			name:     "plain select",
			body:     map[string]any{"query": "SELECT a FROM t1 ORDER BY 1"},
			status:   200,
			wantCols: "a",
			wantRows: "1; 2; 3",
		},
		{
			name:     "expression and alias",
			body:     map[string]any{"query": "SELECT a + 1 AS next, b FROM t1 WHERE b = 'x' ORDER BY 1"},
			status:   200,
			wantCols: "next|b",
			wantRows: "2 x; 4 x",
		},
		{
			name:     "empty result keeps rows array",
			body:     map[string]any{"query": "SELECT a FROM t1 WHERE a > 99"},
			status:   200,
			wantCols: "a",
			wantRows: "",
		},
		{
			name:     "provenance column naming",
			body:     map[string]any{"query": "SELECT PROVENANCE a FROM t1 ORDER BY 1"},
			status:   200,
			wantCols: "a|prov_t1_a|prov_t1_b",
			wantRows: "1 1 x; 2 2 y; 3 3 x",
		},
		{
			name:     "explicit strategy",
			body:     map[string]any{"query": "SELECT PROVENANCE a FROM t1 ORDER BY 1", "strategy": "Gen"},
			status:   200,
			wantCols: "a|prov_t1_a|prov_t1_b",
			wantRows: "1 1 x; 2 2 y; 3 3 x",
		},
		{
			name:     "materialize mode",
			body:     map[string]any{"query": "SELECT a FROM t1 ORDER BY 1 DESC", "mode": "materialize"},
			status:   200,
			wantCols: "a",
			wantRows: "3; 2; 1",
		},
		{
			name:     "retired parallelism field ignored",
			body:     map[string]any{"query": "SELECT a FROM t1 ORDER BY 1", "parallelism": 4},
			status:   200,
			wantCols: "a",
			wantRows: "1; 2; 3",
		},
		{
			name:     "unknown column",
			body:     map[string]any{"query": "SELECT bogus FROM t1"},
			status:   400,
			class:    ClassCompile,
			position: 8,
		},
		{
			name:     "syntax error",
			body:     map[string]any{"query": "SELEC 1"},
			status:   400,
			class:    ClassCompile,
			position: 1,
		},
		{
			name:   "unknown relation",
			body:   map[string]any{"query": "SELECT a FROM nope"},
			status: 400,
			class:  ClassCatalog,
		},
		{
			name:   "strategy not applicable",
			body:   map[string]any{"query": "SELECT PROVENANCE a FROM t1 WHERE a < ALL (SELECT a FROM t1)", "strategy": "Unn"},
			status: 400,
			class:  ClassRewrite,
		},
		{
			name:   "unknown strategy",
			body:   map[string]any{"query": "SELECT a FROM t1", "strategy": "Fast"},
			status: 400,
			class:  ClassRequest,
		},
		{
			name:   "unknown mode",
			body:   map[string]any{"query": "SELECT a FROM t1", "mode": "turbo"},
			status: 400,
			class:  ClassRequest,
		},
		{
			name:   "unknown mode mat",
			body:   map[string]any{"query": "SELECT a FROM t1", "mode": "mat"},
			status: 400,
			class:  ClassRequest,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, out := post(t, ts.URL+"/query", tc.body)
			if status != tc.status {
				t.Fatalf("status = %d, want %d (body error: %+v)", status, tc.status, out.Error)
			}
			if tc.status != 200 {
				if out.Error == nil {
					t.Fatal("error body missing")
				}
				if out.Error.Class != tc.class {
					t.Errorf("class = %q, want %q (message %q)", out.Error.Class, tc.class, out.Error.Message)
				}
				if tc.position != 0 && out.Error.Position != tc.position {
					t.Errorf("position = %d, want %d (message %q)", out.Error.Position, tc.position, out.Error.Message)
				}
				return
			}
			if out.Error != nil {
				t.Fatalf("unexpected error body: %+v", out.Error)
			}
			if tc.wantCols != "" && strings.Join(out.Columns, "|") != tc.wantCols {
				t.Errorf("columns = %v, want %s", out.Columns, tc.wantCols)
			}
			if got := renderRows(out.Rows); got != tc.wantRows {
				t.Errorf("rows = %q, want %q", got, tc.wantRows)
			}
			if out.Rows == nil {
				t.Error("rows array missing from response")
			}
		})
	}
}

func TestQueryProvenanceMetadata(t *testing.T) {
	_, ts := newGoldenServer(t, Config{})
	status, out := post(t, ts.URL+"/query", map[string]any{"query": "SELECT PROVENANCE a FROM t1"})
	if status != 200 {
		t.Fatalf("status = %d (%+v)", status, out.Error)
	}
	if out.DataColumns != 1 {
		t.Errorf("data_columns = %d, want 1", out.DataColumns)
	}
	if len(out.Provenance) != 1 || out.Provenance[0].Relation != "t1" ||
		strings.Join(out.Provenance[0].Columns, "|") != "prov_t1_a|prov_t1_b" {
		t.Errorf("provenance groups = %+v", out.Provenance)
	}
	if out.PeakRows <= 0 {
		t.Errorf("peak_rows = %d, want > 0", out.PeakRows)
	}
}

func TestQueryMalformedBody(t *testing.T) {
	_, ts := newGoldenServer(t, Config{})
	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out reply
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 400 || out.Error == nil || out.Error.Class != ClassRequest {
		t.Fatalf("status = %d, error = %+v, want 400 class request", resp.StatusCode, out.Error)
	}
}

func TestExecEndpointSessions(t *testing.T) {
	_, ts := newGoldenServer(t, Config{})

	// DDL and DML in session one.
	for _, stmt := range []string{
		"CREATE TABLE w (a int, b text)",
		"INSERT INTO w VALUES (1, 'p'), (2, 'q')",
	} {
		status, out := post(t, ts.URL+"/exec", map[string]any{"session": "one", "statement": stmt})
		if status != 200 || !out.OK {
			t.Fatalf("%s: status = %d, body %+v", stmt, status, out.Error)
		}
	}

	// The session sees its table, with provenance over the session data.
	status, out := post(t, ts.URL+"/query", map[string]any{"session": "one", "query": "SELECT PROVENANCE a FROM w ORDER BY 1"})
	if status != 200 {
		t.Fatalf("query in session: status = %d (%+v)", status, out.Error)
	}
	if cols := strings.Join(out.Columns, "|"); cols != "a|prov_w_a|prov_w_b" {
		t.Errorf("columns = %s", cols)
	}
	if got := renderRows(out.Rows); got != "1 1 p; 2 2 q" {
		t.Errorf("rows = %q", got)
	}

	// A different session must not see it: no cross-session leakage.
	status, out = post(t, ts.URL+"/query", map[string]any{"session": "two", "query": "SELECT a FROM w"})
	if status != 400 || out.Error == nil || out.Error.Class != ClassCatalog {
		t.Fatalf("leak check: status = %d, error = %+v, want 400 catalog", status, out.Error)
	}

	// Session one still reads the shared base table.
	status, out = post(t, ts.URL+"/query", map[string]any{"session": "one", "query": "SELECT a FROM t1 ORDER BY 1"})
	if status != 200 || renderRows(out.Rows) != "1; 2; 3" {
		t.Fatalf("base table through session: status = %d rows %q", status, renderRows(out.Rows))
	}

	// Exec of a plain query returns the rows inline.
	status, out = post(t, ts.URL+"/exec", map[string]any{"session": "one", "statement": "SELECT a FROM w ORDER BY 1 DESC"})
	if status != 200 || !out.OK || out.Result == nil {
		t.Fatalf("exec select: status = %d body %+v", status, out.Error)
	}
	if got := renderRows(out.Result.Rows); got != "2; 1" {
		t.Errorf("exec select rows = %q", got)
	}

	// Statement errors come back classified.
	status, out = post(t, ts.URL+"/exec", map[string]any{"session": "one", "statement": "INSERT INTO nope VALUES (1)"})
	if status != 400 || out.Error == nil || out.Error.Class != ClassCatalog {
		t.Fatalf("insert into unknown: status = %d, error = %+v", status, out.Error)
	}

	// DROP removes the session table again.
	status, _ = post(t, ts.URL+"/exec", map[string]any{"session": "one", "statement": "DROP TABLE w"})
	if status != 200 {
		t.Fatalf("drop: status = %d", status)
	}
	status, out = post(t, ts.URL+"/query", map[string]any{"session": "one", "query": "SELECT a FROM w"})
	if status != 400 || out.Error == nil || out.Error.Class != ClassCatalog {
		t.Fatalf("after drop: status = %d, error = %+v", status, out.Error)
	}
}

func TestExecCreateView(t *testing.T) {
	_, ts := newGoldenServer(t, Config{})
	status, out := post(t, ts.URL+"/exec", map[string]any{"session": "v", "statement": "CREATE VIEW big AS SELECT a FROM t1 WHERE a > 1"})
	if status != 200 {
		t.Fatalf("create view: status = %d (%+v)", status, out.Error)
	}
	status, out = post(t, ts.URL+"/query", map[string]any{"session": "v", "query": "SELECT PROVENANCE a FROM big ORDER BY 1"})
	if status != 200 {
		t.Fatalf("query view: status = %d (%+v)", status, out.Error)
	}
	if got := renderRows(out.Rows); got != "2 2 y; 3 3 x" {
		t.Errorf("view provenance rows = %q", got)
	}
	// Views are session-scoped too.
	status, out = post(t, ts.URL+"/query", map[string]any{"session": "other", "query": "SELECT a FROM big"})
	if status != 400 || out.Error == nil || out.Error.Class != ClassCatalog {
		t.Fatalf("view leak check: status = %d, error = %+v", status, out.Error)
	}
}

func TestAdviseEndpoint(t *testing.T) {
	_, ts := newGoldenServer(t, Config{})
	status, out := post(t, ts.URL+"/advise", map[string]any{"query": "SELECT a FROM t1 WHERE a = ANY (SELECT a FROM t1)"})
	if status != 200 {
		t.Fatalf("status = %d (%+v)", status, out.Error)
	}
	if len(out.Advice) < 4 {
		t.Fatalf("advice entries = %d, want the full strategy ranking", len(out.Advice))
	}
	if !out.Advice[0].Applicable {
		t.Errorf("best-ranked strategy %s not applicable", out.Advice[0].Strategy)
	}
	for i := 1; i < len(out.Advice); i++ {
		a, b := out.Advice[i-1], out.Advice[i]
		if a.Applicable == b.Applicable && a.Cost > b.Cost {
			t.Errorf("ranking not sorted: %s(%.1f) before %s(%.1f)", a.Strategy, a.Cost, b.Strategy, b.Cost)
		}
	}

	status, out = post(t, ts.URL+"/advise", map[string]any{"query": "SELECT bogus FROM t1"})
	if status != 400 || out.Error == nil || out.Error.Class != ClassCompile {
		t.Fatalf("advise error: status = %d, error = %+v", status, out.Error)
	}
}

func TestHealthzAndStats(t *testing.T) {
	_, ts := newGoldenServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || health.Status != "ok" {
		t.Fatalf("healthz = %d %+v", resp.StatusCode, health)
	}

	post(t, ts.URL+"/query", map[string]any{"query": "SELECT a FROM t1"})
	post(t, ts.URL+"/query", map[string]any{"query": "SELECT bogus FROM t1"})
	// Sessionless requests each get a session of their own; the plan cache
	// is the base database's, so the second one of a shape still hits.
	post(t, ts.URL+"/query", map[string]any{"query": "SELECT a FROM t1 WHERE a > 1"})
	post(t, ts.URL+"/query", map[string]any{"query": "SELECT a FROM t1 WHERE a > 2"})

	stats := getStats(t, ts.URL)
	q := stats.Endpoints["query"]
	if q.Count != 4 || q.Errors != 1 || q.InFlight != 0 {
		t.Errorf("query stats = %+v, want count 4, errors 1, in_flight 0", q)
	}
	if pc := stats.PlanCache; pc.Hits != 1 || pc.Misses != 3 || pc.Entries != 2 {
		t.Errorf("plan_cache = %+v, want 1 hit, 3 misses, 2 entries", pc)
	}

	// t1's b has two bindings, so the correlated EXISTS builds an index
	// over t1 on its second one. The index stays with t1's version: the
	// repeated query probes it and leaves index_builds flat.
	const correlated = "SELECT a FROM t1 WHERE EXISTS (SELECT 1 FROM t1 u WHERE u.b = t1.b AND u.a <> t1.a)"
	post(t, ts.URL+"/query", map[string]any{"query": correlated})
	built := getStats(t, ts.URL).Endpoints["query"].IndexBuilds
	if built != 1 {
		t.Errorf("index_builds = %d after the first correlated query, want 1", built)
	}
	post(t, ts.URL+"/query", map[string]any{"query": correlated})
	if again := getStats(t, ts.URL).Endpoints["query"].IndexBuilds; again != built {
		t.Errorf("index_builds went from %d to %d over a repeated query", built, again)
	}
	stats = getStats(t, ts.URL)
	q = stats.Endpoints["query"]
	if q.Latency.Max <= 0 {
		t.Errorf("latency histogram empty: %+v", q.Latency)
	}
	if stats.InFlight != 0 {
		t.Errorf("global in_flight = %d", stats.InFlight)
	}
}

// TestPanicAnswersInternal puts a panicking handler through the wrapper
// that contains the server's routes: the client gets a 500 with class
// "internal" instead of a dropped connection, and the log names the
// method, the path and the stack. http.ErrAbortHandler still aborts.
func TestPanicAnswersInternal(t *testing.T) {
	var logged bytes.Buffer
	log.SetOutput(&logged)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	ts := httptest.NewServer(contain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/abort" {
			panic(http.ErrAbortHandler)
		}
		panic("engine defect")
	})))
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatalf("the connection was dropped: %v", err)
	}
	defer resp.Body.Close()
	var body ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusInternalServerError || body.Error.Class != ClassInternal || !strings.Contains(body.Error.Message, "engine defect") {
		t.Errorf("got %d %+v, want 500 with class %q", resp.StatusCode, body.Error, ClassInternal)
	}
	for _, want := range []string{"POST /query", "engine defect", "service_test.go"} {
		if !strings.Contains(logged.String(), want) {
			t.Errorf("log misses %q:\n%s", want, logged.String())
		}
	}

	if resp, err := http.Get(ts.URL + "/abort"); err == nil {
		resp.Body.Close()
		t.Errorf("http.ErrAbortHandler answered %d, want an aborted connection", resp.StatusCode)
	}
}
