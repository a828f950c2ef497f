package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"
)

// TestGracefulShutdownDrains: Shutdown lets an admitted slow query run to
// completion and deliver its full response, while new statement requests
// are rejected with 503 and healthz flips to draining.
func TestGracefulShutdownDrains(t *testing.T) {
	s, ts, _ := newSynthServer(t, 200, 10, Config{})
	slow := slowStatement

	type result struct {
		status int
		out    reply
	}
	resc := make(chan result, 1)
	go func() {
		status, out := post(t, ts.URL+"/query", map[string]any{"query": slow, "strategy": "Gen"})
		resc <- result{status, out}
	}()
	waitUntil(t, 2*time.Second, func() bool { return s.inFlightN.Load() == 1 })

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()
	waitUntil(t, 2*time.Second, func() bool { return s.Draining() })

	// New statement work is rejected while the drain runs.
	status, out := post(t, ts.URL+"/query", map[string]any{"query": "SELECT a FROM r1 WHERE b = 0"})
	if status != 503 || out.Error == nil || out.Error.Class != ClassDraining {
		t.Fatalf("during drain: status = %d, error = %+v, want 503 class draining", status, out.Error)
	}
	status, out = post(t, ts.URL+"/exec", map[string]any{"statement": "CREATE TABLE d (a int)"})
	if status != 503 || out.Error == nil || out.Error.Class != ClassDraining {
		t.Fatalf("exec during drain: status = %d, error = %+v", status, out.Error)
	}

	// Health reports draining with 503.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 || health.Status != "draining" {
		t.Fatalf("healthz during drain = %d %+v", resp.StatusCode, health)
	}

	// The in-flight query still delivers its complete response: no
	// dropped responses during drain.
	r := <-resc
	if r.status != 200 {
		t.Fatalf("in-flight query during drain: status = %d (%+v)", r.status, r.out.Error)
	}
	if len(r.out.Rows) == 0 || len(r.out.Columns) == 0 {
		t.Fatalf("in-flight query returned a truncated body: %d rows, %v", len(r.out.Rows), r.out.Columns)
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if n := s.inFlightN.Load(); n != 0 {
		t.Fatalf("in-flight gauge = %d after drain", n)
	}
}

// TestShutdownDeadline: a drain that cannot finish in time reports the
// context error instead of hanging.
func TestShutdownDeadline(t *testing.T) {
	s, ts, _ := newSynthServer(t, 200, 10, Config{})
	slow := slowStatement
	done := make(chan struct{})
	go func() {
		post(t, ts.URL+"/query", map[string]any{"query": slow, "strategy": "Gen"})
		close(done)
	}()
	waitUntil(t, 2*time.Second, func() bool { return s.inFlightN.Load() == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err == nil {
		t.Fatal("Shutdown returned nil although a request was still in flight")
	}
	<-done
}

// waitGoroutineBaseline asserts the process returns to (at most) baseline
// goroutines, polling briefly because the runtime's accounting of a
// just-returned goroutine can lag, and dumping all stacks on a real leak.
func waitGoroutineBaseline(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d running, baseline %d; stacks:\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestShutdownWaiterExits covers the one goroutine the service starts
// itself: Shutdown's inflight.Wait() helper. It must be gone after a clean
// drain, and after a drain whose deadline expired as soon as the statement
// that outlived the deadline finishes. Statements are admitted directly, so
// no HTTP connection goroutines blur the count.
func TestShutdownWaiterExits(t *testing.T) {
	admit := func(t *testing.T, s *Server) (release func()) {
		t.Helper()
		release, ok := s.admit(httptest.NewRecorder())
		if !ok {
			t.Fatal("statement not admitted")
		}
		return release
	}

	t.Run("clean drain", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		s := New(Config{})
		release := admit(t, s)
		shutdownErr := make(chan error, 1)
		go func() { shutdownErr <- s.Shutdown(context.Background()) }()
		waitUntil(t, 2*time.Second, s.Draining)
		release()
		if err := <-shutdownErr; err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
		waitGoroutineBaseline(t, baseline)
	})

	t.Run("expired drain", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		s := New(Config{})
		release := admit(t, s)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := s.Shutdown(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("Shutdown with an expired context: %v, want context.Canceled", err)
		}
		// The waiter is still parked on the in-flight statement; it may
		// only outlive Shutdown until that statement is done.
		release()
		waitGoroutineBaseline(t, baseline)
	})
}
