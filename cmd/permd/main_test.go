package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestGracefulSIGTERM runs the real binary: SIGTERM while a provenance
// query is in flight must let that query deliver its full response,
// reject new work with 503, and exit 0 within the drain deadline.
func TestGracefulSIGTERM(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the permd binary")
	}
	bin := filepath.Join(t.TempDir(), "permd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	addr := freeAddr(t)
	cmd := exec.Command(bin, "-addr", addr, "-drain-timeout", "30s")
	var logs bytes.Buffer
	cmd.Stderr = &logs
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	base := "http://" + addr

	// Wait for the listener.
	waitFor(t, 5*time.Second, func() bool {
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == 200
	})

	// Launch a slow query: r1's three-way self cross product times the five
	// rows of r, 5 M rows that no executor cache or provenance rewrite
	// shortens (about 1 s on a 2-core x86-64 container), so it is still in
	// flight when the 503 probe below runs.
	slow := "SELECT count(*) FROM r1 AS x, r1 AS y, r1 AS z, r AS w"
	type result struct {
		status int
		rows   int
		err    error
	}
	resc := make(chan result, 1)
	go func() {
		status, rows, err := postQuery(base, fmt.Sprintf(`{"query":%q,"strategy":"Gen","timeout_ms":25000}`, slow))
		resc <- result{status, rows, err}
	}()
	waitFor(t, 5*time.Second, func() bool { return inFlight(base) >= 1 })

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// While the slow query drains, new statement work must get 503.
	waitFor(t, 5*time.Second, func() bool {
		status, _, err := postQuery(base, `{"query":"SELECT a FROM r1 WHERE b = 0"}`)
		return err == nil && status == 503
	})

	r := <-resc
	if r.err != nil || r.status != 200 || r.rows == 0 {
		t.Fatalf("in-flight query during SIGTERM drain: status=%d rows=%d err=%v\npermd log:\n%s",
			r.status, r.rows, r.err, logs.String())
	}

	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("permd exited with %v\n%s", err, logs.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("permd did not exit after SIGTERM\n%s", logs.String())
	}
}

func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(25 * time.Millisecond)
	}
}

func postQuery(base, body string) (status, rows int, err error) {
	resp, err := http.Post(base+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var out struct {
		Rows [][]any `json:"rows"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return resp.StatusCode, 0, err
	}
	return resp.StatusCode, len(out.Rows), nil
}

func inFlight(base string) int {
	resp, err := http.Get(base + "/stats")
	if err != nil {
		return -1
	}
	defer resp.Body.Close()
	var out struct {
		InFlight int `json:"in_flight"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return -1
	}
	return out.InFlight
}
