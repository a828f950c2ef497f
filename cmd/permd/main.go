// Command permd serves the perm engine over HTTP/JSON: POST /query,
// /exec and /advise plus GET /healthz and /stats (see internal/service
// for the endpoint contracts). The base catalog is fixed: the fuzz tables
// r, s, t, u of seed 1 and the synthetic workload relations r1, r2 (seed 1,
// 100 rows each, gaussian b), so ad-hoc curl sessions have data to query
// out of the box; per-session DDL lands in copy-on-write session layers
// above it.
//
//	go run ./cmd/permd -addr :8080
//	curl -s localhost:8080/query -d '{"query":"SELECT PROVENANCE * FROM r"}'
//
// SIGINT/SIGTERM starts a graceful drain: in-flight requests run to
// completion (bounded by -drain-timeout), new statement requests are
// rejected with 503, then the listener shuts down.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"perm"
	"perm/internal/fuzz"
	"perm/internal/service"
	"perm/internal/synth"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	maxConcurrent := flag.Int("max-concurrent", 0, "max statements executing at once (0 = 4×GOMAXPROCS)")
	timeout := flag.Duration("timeout", 30*time.Second, "default per-request deadline")
	maxTimeout := flag.Duration("max-timeout", 5*time.Minute, "cap on the deadline a request may ask for")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "how long shutdown waits for in-flight requests")
	flag.Parse()

	db, err := buildDB()
	if err != nil {
		fmt.Fprintln(os.Stderr, "permd:", err)
		os.Exit(1)
	}
	svc := service.New(service.Config{
		DB:             db,
		MaxConcurrent:  *maxConcurrent,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: svc}

	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "permd: listening on %s\n", *addr)
		errc <- httpSrv.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "permd:", err)
		os.Exit(1)
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "permd: %v, draining (up to %s)\n", sig, *drainTimeout)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drainErr := svc.Shutdown(ctx)    // reject new statements, wait for admitted ones
	httpErr := httpSrv.Shutdown(ctx) // then close the listener and idle conns
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "permd:", err)
	}
	if drainErr != nil {
		fmt.Fprintln(os.Stderr, "permd:", drainErr)
		os.Exit(1)
	}
	if httpErr != nil {
		fmt.Fprintln(os.Stderr, "permd:", httpErr)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "permd: drained, bye")
}

// buildDB seeds the base catalog: the fuzz tables r, s, t, u plus the
// synthetic workload relations r1, r2. internal/service's
// TestCorpusOverHTTP replays its corpus against the same catalog.
func buildDB() (*perm.DB, error) {
	base := fuzz.NewDB(1)
	cat := synth.Workload{InputSize: 100, SublinkSize: 100, Seed: 1}.Catalog()
	for _, name := range []string{"r1", "r2"} {
		r, err := cat.Relation(name)
		if err != nil {
			return nil, fmt.Errorf("synth relation %s: %w", name, err)
		}
		base.Catalog().Register(name, r)
	}
	return base, nil
}
