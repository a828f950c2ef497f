// Command permd serves the perm engine over HTTP/JSON: POST /query,
// /exec and /advise plus GET /healthz and /stats (see internal/service
// for the endpoint contracts). The base catalog is seeded with the fuzz
// tables (r, s, t, u) and the synthetic workload relations (r1, r2) so
// cmd/permload and ad-hoc curl sessions have data to query out of the
// box; per-session DDL lands in copy-on-write session layers above it.
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
	seed := flag.Int64("seed", 1, "seed for the fuzz tables and synth workload data")
	maxConcurrent := flag.Int("max-concurrent", 0, "max statements executing at once (0 = 4×GOMAXPROCS)")
	timeout := flag.Duration("timeout", 30*time.Second, "default per-request deadline")
	maxTimeout := flag.Duration("max-timeout", 5*time.Minute, "cap on the deadline a request may ask for")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "how long shutdown waits for in-flight requests")
	synthSize := flag.Int("synth-size", 100, "row count of the synth workload relations r1 and r2")
	synthDomain := flag.Int("synth-domain", 0, "bounded uniform domain for synth attribute b (0 = gaussian)")
	planCheck := flag.String("plancheck", "off", "per-stage plan verification: off, log or strict")
	flag.Parse()

	pcMode, err := perm.ParsePlanCheckMode(*planCheck)
	if err != nil {
		fmt.Fprintln(os.Stderr, "permd:", err)
		os.Exit(2)
	}
	db, err := buildDB(*seed, *synthSize, *synthDomain)
	if err != nil {
		fmt.Fprintln(os.Stderr, "permd:", err)
		os.Exit(1)
	}
	svc := service.New(service.Config{
		DB:             db,
		MaxConcurrent:  *maxConcurrent,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		PlanCheck:      pcMode,
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
// synthetic workload relations r1, r2.
func buildDB(seed int64, synthSize, synthDomain int) (*perm.DB, error) {
	base := fuzz.NewDB(seed)
	wl := synth.Workload{InputSize: synthSize, SublinkSize: synthSize, Seed: seed, Domain: synthDomain}
	cat := wl.Catalog()
	for _, name := range []string{"r1", "r2"} {
		r, err := cat.Relation(name)
		if err != nil {
			return nil, fmt.Errorf("synth relation %s: %w", name, err)
		}
		base.Catalog().Register(name, r)
	}
	return base, nil
}
