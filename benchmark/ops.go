package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"perm"
	"perm/internal/service"
)

// opKind is the kind of one operation of a workload.
type opKind uint8

const (
	opQuery  opKind = iota // a SELECT, plain or PROVENANCE
	opExec                 // DDL or INSERT
	opAdvise               // strategy advice for a plain query
)

// op is one operation of a workload's statement list. Everything the program
// under test sees of it is Text and Strategy; the rest is the benchmark's own
// bookkeeping.
type op struct {
	Kind opKind
	// DB indexes the instance's databases (sublink_probe has two).
	DB int
	// Text is the SQL sent to the engine.
	Text string
	// Strategy is the rewrite strategy of a PROVENANCE query ("" = default).
	Strategy perm.Strategy
	// Plain is Text without the PROVENANCE keyword for a provenance query,
	// "" otherwise: the traced run times it to price provenance against the
	// unrewritten query of the very same statement.
	Plain string
	// Template names the template the statement was drawn from.
	Template string
	// Rows is the row count the timed window checks, -1 for none (DDL).
	Rows int
}

// key identifies a distinct statement: two ops with the same key must
// produce the same result on a fixed database.
func (o *op) key() string {
	return fmt.Sprintf("%d|%d|%s|%s", o.Kind, o.DB, o.Strategy, o.Text)
}

// digest is the order-insensitive fingerprint of one result: row and column
// counts plus the wrapping sum of the rows' hashes.
type digest struct {
	Rows int    `json:"rows"`
	Cols int    `json:"cols"`
	Sum  string `json:"sum"`
}

// digestRows fingerprints a result. Numbers are rendered to nine significant
// digits whatever their Go type, so an int64 from the library, a float64
// decoded from JSON, and float aggregates summed in a different order by
// another executor all agree.
func digestRows(cols int, rows [][]any) digest {
	var sum uint64
	var buf []byte
	for _, row := range rows {
		buf = buf[:0]
		for _, v := range row {
			switch x := v.(type) {
			case nil:
				buf = append(buf, 'N')
			case bool:
				buf = strconv.AppendBool(buf, x)
			case int64:
				buf = strconv.AppendFloat(buf, float64(x), 'g', 9, 64)
			case float64:
				buf = strconv.AppendFloat(buf, x, 'g', 9, 64)
			case string:
				buf = strconv.AppendQuote(buf, x)
			default:
				buf = append(buf, fmt.Sprintf("?%T", v)...)
			}
			buf = append(buf, '|')
		}
		h := fnv.New64a()
		_, _ = h.Write(buf) // hash.Hash never returns an error
		sum += h.Sum64()
	}
	return digest{Rows: len(rows), Cols: cols, Sum: strconv.FormatUint(sum, 16)}
}

// outcome is what one executed operation returned, as far as the benchmark
// checks it.
type outcome struct {
	rows int
	dig  func() digest // computed only by passes that check checksums
	// Service path only:
	elapsedUS float64 // server-reported engine time, 0 when not reported
	bytes     int     // response body size without the elapsed_ms digits
	shed      bool    // refused with 429
}

// executor runs one operation for one client and reports its outcome.
type executor func(client int, o *op, ref bool) (outcome, error)

// queryOpts are the perm options of a query op. ref selects the reference
// configuration: the materializing operator-at-a-time executor, which shares
// no operator code with the streaming pipeline the timed runs use.
func queryOpts(o *op, ref bool) []perm.Option {
	var opts []perm.Option
	if o.Strategy != "" {
		opts = append(opts, perm.WithStrategy(o.Strategy))
	}
	if ref {
		opts = append(opts, perm.WithoutStreaming())
	}
	return opts
}

// runner is the surface a library-path operation runs against: *perm.DB and
// *perm.Session both have it.
type runner interface {
	Query(query string, opts ...perm.Option) (*perm.Result, error)
	Exec(statement string, opts ...perm.Option) (*perm.Result, error)
	Advise(query string) ([]perm.StrategyAdvice, error)
}

// runLibrary executes one op in process.
func runLibrary(r runner, o *op, ref bool) (outcome, error) {
	switch o.Kind {
	case opQuery:
		res, err := r.Query(o.Text, queryOpts(o, ref)...)
		if err != nil {
			return outcome{}, err
		}
		return outcome{rows: len(res.Rows), dig: func() digest { return digestRows(len(res.Columns), res.Rows) }}, nil
	case opExec:
		_, err := r.Exec(o.Text)
		return outcome{rows: -1, dig: func() digest { return digest{Rows: -1} }}, err
	default:
		adv, err := r.Advise(o.Text)
		if err != nil {
			return outcome{}, err
		}
		return outcome{rows: len(adv), dig: func() digest { return digestAdvice(adv) }}, nil
	}
}

func digestAdvice(adv []perm.StrategyAdvice) digest {
	rows := make([][]any, len(adv))
	for i, a := range adv {
		rows[i] = []any{string(a.Strategy), a.Applicable, a.Cost}
	}
	return digestRows(3, rows)
}

// httpClient is one closed-loop service client: a keep-alive connection and
// a named session.
type httpClient struct {
	base    string
	session string
	c       *http.Client
}

func newHTTPClient(base, session string) *httpClient {
	return &httpClient{base: base, session: session, c: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1},
		Timeout:   60 * time.Second,
	}}
}

func (h *httpClient) close() { h.c.CloseIdleConnections() }

// elapsedKey precedes the only run-dependent bytes of a query response.
const elapsedKey = `"elapsed_ms":`

// run sends one op over HTTP and decodes the reply.
func (h *httpClient) run(o *op, ref bool) (outcome, error) {
	var path string
	var req any
	switch o.Kind {
	case opQuery:
		mode := ""
		if ref {
			mode = "materialize"
		}
		path, req = "/query", service.QueryRequest{Session: h.session, Query: o.Text, Strategy: string(o.Strategy), Mode: mode}
	case opExec:
		path, req = "/exec", service.ExecRequest{Session: h.session, Statement: o.Text}
	default:
		path, req = "/advise", service.AdviseRequest{Session: h.session, Query: o.Text}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return outcome{}, fmt.Errorf("encode %s request: %w", path, err)
	}
	resp, err := h.c.Post(h.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return outcome{}, fmt.Errorf("POST %s: %w", path, err)
	}
	raw, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close() // fully read; a close error cannot lose data
	if err != nil {
		return outcome{}, fmt.Errorf("read %s response: %w", path, err)
	}
	out := outcome{bytes: len(raw), shed: resp.StatusCode == http.StatusTooManyRequests}
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	switch o.Kind {
	case opQuery:
		var qr service.QueryResponse
		if err := json.Unmarshal(raw, &qr); err != nil {
			return out, fmt.Errorf("decode %s response: %w", path, err)
		}
		out.rows = len(qr.Rows)
		out.elapsedUS = qr.ElapsedMS * 1000
		if i := bytes.Index(raw, []byte(elapsedKey)); i >= 0 {
			rest := raw[i+len(elapsedKey):]
			out.bytes -= len(rest) - len(bytes.TrimLeft(rest, "0123456789.e+-"))
		}
		out.dig = func() digest { return digestRows(len(qr.Columns), qr.Rows) }
	case opExec:
		out.rows = -1
		out.dig = func() digest { return digest{Rows: -1} }
	default:
		var ar service.AdviseResponse
		if err := json.Unmarshal(raw, &ar); err != nil {
			return out, fmt.Errorf("decode %s response: %w", path, err)
		}
		out.rows = len(ar.Advice)
		out.dig = func() digest {
			rows := make([][]any, len(ar.Advice))
			for i, a := range ar.Advice {
				rows[i] = []any{a.Strategy, a.Applicable, a.Cost}
			}
			return digestRows(3, rows)
		}
	}
	return out, nil
}

// withProvenance inserts the PROVENANCE keyword after a query's first
// SELECT.
func withProvenance(q string) string {
	i := strings.Index(q, "SELECT")
	if i < 0 {
		panic("benchmark: statement without SELECT: " + q)
	}
	return q[:i+6] + " PROVENANCE" + q[i+6:]
}
