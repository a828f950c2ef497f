package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"perm"
)

// maxBodyBytes bounds request bodies; queries are text, not bulk data.
const maxBodyBytes = 1 << 20

// QueryRequest is the body of POST /query.
type QueryRequest struct {
	// Session names the session scope; empty runs against a one-shot
	// private session over the base catalog.
	Session string `json:"session,omitempty"`
	// Query is the SQL text (plain or SELECT PROVENANCE).
	Query string `json:"query"`
	// Strategy selects the provenance rewrite strategy: Gen, Left, Move,
	// Unn, UnnX or Auto (default).
	Strategy string `json:"strategy,omitempty"`
	// Mode selects the executor: "stream" (default) or "materialize".
	Mode string `json:"mode,omitempty"`
	// TimeoutMS overrides the server's default per-request deadline,
	// capped by the server maximum.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// ProvGroupJSON mirrors perm.ProvGroup.
type ProvGroupJSON struct {
	Relation string   `json:"relation"`
	Columns  []string `json:"columns"`
}

// QueryResponse is the success body of POST /query (and of POST /exec when
// the statement was a query).
type QueryResponse struct {
	Columns     []string        `json:"columns"`
	Rows        [][]any         `json:"rows"`
	DataColumns int             `json:"data_columns"`
	Provenance  []ProvGroupJSON `json:"provenance,omitempty"`
	PeakRows    int64           `json:"peak_rows"`
	ElapsedMS   float64         `json:"elapsed_ms"`
}

// ExecRequest is the body of POST /exec.
type ExecRequest struct {
	Session   string `json:"session,omitempty"`
	Statement string `json:"statement"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

// ExecResponse is the success body of POST /exec.
type ExecResponse struct {
	OK bool `json:"ok"`
	// Result carries the rows when the statement was a query.
	Result *QueryResponse `json:"result,omitempty"`
}

// AdviseRequest is the body of POST /advise.
type AdviseRequest struct {
	Session string `json:"session,omitempty"`
	// Query is the plain query (no PROVENANCE keyword) to rank strategies
	// for.
	Query     string `json:"query"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

// AdviceJSON mirrors perm.StrategyAdvice.
type AdviceJSON struct {
	Strategy   string  `json:"strategy"`
	Applicable bool    `json:"applicable"`
	Cost       float64 `json:"cost"`
	Reason     string  `json:"reason"`
}

// AdviseResponse is the success body of POST /advise, ranked best-first.
type AdviseResponse struct {
	Advice []AdviceJSON `json:"advice"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeError(ctx context.Context, w http.ResponseWriter, err error) {
	body, status := classify(ctx, err)
	writeJSON(w, status, ErrorBody{body})
}

func decodeBody(w http.ResponseWriter, r *http.Request, into any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err := dec.Decode(into); err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorBody{ErrorJSON{
			Class:   ClassRequest,
			Message: "service: malformed request body: " + err.Error(),
		}})
		return false
	}
	return true
}

var strategies = map[string]perm.Strategy{
	"":    perm.Auto,
	"Gen": perm.Gen, "Left": perm.Left, "Move": perm.Move,
	"Unn": perm.Unn, "UnnX": perm.UnnX, "Auto": perm.Auto,
}

// queryOptions validates the per-request knobs and builds the perm
// options. A nil error slice return means the request was rejected and a
// response written.
func (s *Server) queryOptions(w http.ResponseWriter, strategy, mode string) ([]perm.Option, bool) {
	strat, ok := strategies[strategy]
	if !ok {
		writeJSON(w, http.StatusBadRequest, ErrorBody{ErrorJSON{
			Class:   ClassRequest,
			Message: fmt.Sprintf("service: unknown strategy %q (want Gen, Left, Move, Unn, UnnX or Auto)", strategy),
		}})
		return nil, false
	}
	opts := []perm.Option{perm.WithStrategy(strat)}
	switch mode {
	case "", "stream":
	case "materialize", "mat":
		opts = append(opts, perm.WithoutStreaming())
	default:
		writeJSON(w, http.StatusBadRequest, ErrorBody{ErrorJSON{
			Class:   ClassRequest,
			Message: fmt.Sprintf("service: unknown executor mode %q (want stream or materialize)", mode),
		}})
		return nil, false
	}
	return opts, true
}

func resultJSON(res *perm.Result, elapsed time.Duration) *QueryResponse {
	out := &QueryResponse{
		Columns:     res.Columns,
		Rows:        res.Rows,
		DataColumns: res.DataColumns,
		PeakRows:    res.PeakRows,
		ElapsedMS:   round3(float64(elapsed) / float64(time.Millisecond)),
	}
	if out.Rows == nil {
		out.Rows = [][]any{}
	}
	for _, g := range res.Provenance {
		out.Provenance = append(out.Provenance, ProvGroupJSON{Relation: g.Relation, Columns: g.Columns})
	}
	return out
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if !decodeBody(w, r, &req) {
		return
	}
	opts, ok := s.queryOptions(w, req.Strategy, req.Mode)
	if !ok {
		return
	}
	release, ok := s.admit(w)
	if !ok {
		return
	}
	defer release()
	s.queryStats.inFlight.Add(1)
	defer s.queryStats.inFlight.Add(-1)

	ctx, cancel := context.WithTimeout(r.Context(), s.deadline(req.TimeoutMS))
	defer cancel()
	start := time.Now()
	res, err := s.session(req.Session).QueryContext(ctx, req.Query, opts...)
	elapsed := time.Since(start)
	if err != nil {
		s.queryStats.observe(elapsed, true, 0)
		writeError(ctx, w, err)
		return
	}
	s.queryStats.observe(elapsed, false, res.PeakRows)
	writeJSON(w, http.StatusOK, resultJSON(res, elapsed))
}

func (s *Server) handleExec(w http.ResponseWriter, r *http.Request) {
	var req ExecRequest
	if !decodeBody(w, r, &req) {
		return
	}
	release, ok := s.admit(w)
	if !ok {
		return
	}
	defer release()
	s.execStats.inFlight.Add(1)
	defer s.execStats.inFlight.Add(-1)

	ctx, cancel := context.WithTimeout(r.Context(), s.deadline(req.TimeoutMS))
	defer cancel()
	start := time.Now()
	res, err := s.session(req.Session).ExecContext(ctx, req.Statement)
	elapsed := time.Since(start)
	if err != nil {
		s.execStats.observe(elapsed, true, 0)
		writeError(ctx, w, err)
		return
	}
	resp := ExecResponse{OK: true}
	var peak int64
	if res != nil {
		resp.Result = resultJSON(res, elapsed)
		peak = res.PeakRows
	}
	s.execStats.observe(elapsed, false, peak)
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleAdvise(w http.ResponseWriter, r *http.Request) {
	var req AdviseRequest
	if !decodeBody(w, r, &req) {
		return
	}
	release, ok := s.admit(w)
	if !ok {
		return
	}
	defer release()
	s.adviseStats.inFlight.Add(1)
	defer s.adviseStats.inFlight.Add(-1)

	start := time.Now()
	advice, err := s.session(req.Session).Advise(req.Query)
	elapsed := time.Since(start)
	if err != nil {
		s.adviseStats.observe(elapsed, true, 0)
		writeError(r.Context(), w, err)
		return
	}
	s.adviseStats.observe(elapsed, false, 0)
	out := AdviseResponse{Advice: []AdviceJSON{}}
	for _, a := range advice {
		out.Advice = append(out.Advice, AdviceJSON{
			Strategy:   string(a.Strategy),
			Applicable: a.Applicable,
			Cost:       a.Cost,
			Reason:     a.Reason,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// HealthResponse is the body of GET /healthz.
type HealthResponse struct {
	Status   string `json:"status"`
	InFlight int64  `json:"in_flight"`
	Sessions int    `json:"sessions"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := HealthResponse{Status: "ok", InFlight: s.inFlightN.Load(), Sessions: s.SessionCount()}
	status := http.StatusOK
	if s.draining.Load() {
		resp.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}

// StatsResponse is the body of GET /stats.
type StatsResponse struct {
	UptimeS   float64                 `json:"uptime_s"`
	Sessions  int                     `json:"sessions"`
	InFlight  int64                   `json:"in_flight"`
	Draining  bool                    `json:"draining,omitempty"`
	Endpoints map[string]EndpointJSON `json:"endpoints"`
	PlanCache PlanCacheJSON           `json:"plan_cache"`
}

// PlanCacheJSON is the serialized view of the base database's plan cache,
// which all sessions share (see perm.PlanCacheStats).
type PlanCacheJSON struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Stale     int64 `json:"stale"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, StatsResponse{
		PlanCache: PlanCacheJSON(s.cfg.DB.PlanCacheStats()),
		UptimeS:   round3(time.Since(s.start).Seconds()),
		Sessions:  s.SessionCount(),
		InFlight:  s.inFlightN.Load(),
		Draining:  s.draining.Load(),
		Endpoints: map[string]EndpointJSON{
			"query":  s.queryStats.json(),
			"exec":   s.execStats.json(),
			"advise": s.adviseStats.json(),
		},
	})
}
