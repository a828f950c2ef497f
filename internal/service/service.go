package service

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"perm"
)

// Config configures a Server. The zero value of every field but DB gets a
// sensible default.
type Config struct {
	// DB is the shared base database. The server never writes to it: all
	// DDL lands in session layers. Its owner may keep changing it while the
	// server runs — every statement pins the base version it started with,
	// and later statements see the new one.
	DB *perm.DB

	// MaxConcurrent caps the statements executing at once across all
	// endpoints; requests beyond it are shed with 429 + Retry-After.
	// Default 4 × GOMAXPROCS.
	MaxConcurrent int

	// DefaultTimeout is the server-level per-request deadline applied when
	// a request carries no timeout_ms. Default 30s.
	DefaultTimeout time.Duration

	// MaxTimeout caps the deadline a request may ask for. Default 5m.
	MaxTimeout time.Duration

	// PlanCheck is the per-stage plan verification mode applied to every
	// statement (see perm.WithPlanCheck). Default off; strict turns a
	// structural plan violation, or a write into a cached plan, into a
	// request error of class "plancheck".
	PlanCheck perm.PlanCheckMode
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 4 * runtime.GOMAXPROCS(0)
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	return c
}

// Server is the HTTP query service. Create with New, mount via Handler
// (it implements http.Handler), stop with Shutdown.
type Server struct {
	cfg Config
	mux *http.ServeMux

	sessMu sync.Mutex
	// sessions maps session names to their engine sessions. Guarded by
	// sessMu.
	sessions map[string]*perm.Session

	// limiter is the admission semaphore: a token per executing statement.
	limiter chan struct{}

	// admission guards the draining flag against in-flight accounting:
	// handlers take the read side to (check draining, join the in-flight
	// group) atomically; Shutdown takes the write side to flip draining, so
	// after Shutdown flips it every admitted request is already counted and
	// none can be dropped.
	admission sync.RWMutex
	draining  atomic.Bool
	inflight  sync.WaitGroup
	inFlightN atomic.Int64

	start time.Time

	queryStats  endpointStats
	execStats   endpointStats
	adviseStats endpointStats
}

// New builds a Server over cfg.DB.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		sessions: map[string]*perm.Session{},
		limiter:  make(chan struct{}, cfg.MaxConcurrent),
		start:    time.Now(),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("POST /exec", s.handleExec)
	mux.HandleFunc("POST /advise", s.handleAdvise)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /stats", s.handleStats)
	s.mux = mux
	return s
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// session returns the named session, creating it on first use. The empty
// name returns a fresh one-shot session (request-private scope over the
// base).
func (s *Server) session(name string) *perm.Session {
	if name == "" {
		return s.cfg.DB.NewSession()
	}
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	sess, ok := s.sessions[name]
	if !ok {
		sess = s.cfg.DB.NewSession()
		s.sessions[name] = sess
	}
	return sess
}

// SessionCount reports the number of named sessions.
func (s *Server) SessionCount() int {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	return len(s.sessions)
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// admit performs admission control for one statement-executing request:
// reject while draining (503), shed when the concurrency limit is reached
// (429), otherwise join the in-flight group and take a limiter token.
// On success the caller must call the returned release exactly once.
func (s *Server) admit(w http.ResponseWriter) (release func(), ok bool) {
	s.admission.RLock()
	if s.draining.Load() {
		s.admission.RUnlock()
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, ErrorBody{ErrorJSON{
			Class:   ClassDraining,
			Message: "service: server is shutting down",
		}})
		return nil, false
	}
	select {
	case s.limiter <- struct{}{}:
	default:
		s.admission.RUnlock()
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, ErrorBody{ErrorJSON{
			Class:   ClassOverload,
			Message: fmt.Sprintf("service: %d statements already executing; retry later", s.cfg.MaxConcurrent),
		}})
		return nil, false
	}
	s.inflight.Add(1)
	s.inFlightN.Add(1)
	s.admission.RUnlock()
	return func() {
		<-s.limiter
		s.inFlightN.Add(-1)
		s.inflight.Done()
	}, true
}

// Shutdown drains the server: new statement requests are rejected with 503
// while every already-admitted request runs to completion. It returns nil
// once the last in-flight request finished, or the context's error if the
// drain deadline expires first (in-flight queries keep their own deadlines
// and the process is expected to exit shortly after).
func (s *Server) Shutdown(ctx context.Context) error {
	s.admission.Lock()
	s.draining.Store(true)
	s.admission.Unlock()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: drain deadline expired with %d requests in flight: %w", s.inFlightN.Load(), ctx.Err())
	}
}

// deadline resolves the effective timeout for one request.
func (s *Server) deadline(timeoutMS int64) time.Duration {
	d := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d
}
