// Package lint is the perm repository's invariant-checking suite: three
// analyzers over type-checked packages, run by cmd/permlint and by the
// fixture tests in this package. The analyzers encode the cancellation,
// error-handling and release disciplines the engine relies on but the
// compiler cannot enforce.
//
// Three invariants are checked at run time instead of proved here. That a
// published plan is never written is the frozen-plan fingerprint that
// perm.WithPlanCheck turns on (see package perm's planned and
// internal/plancheck's Fingerprint); that the executor's per-row paths stay cheap is the
// allocation-slope table of internal/eval (TestAllocSlopes); that shared
// state is read and written under its mutex is `go test -race` over the
// concurrent tests of the plan cache, the catalog and the service.
//
// # Framework
//
// The Analyzer/Pass/Diagnostic types mirror golang.org/x/tools/go/analysis
// so the suite can migrate to the real framework wholesale; the build
// environment has no module cache or network, so the loader (load.go)
// instead shells out to `go list -deps -json` and type-checks the module
// plus its standard-library closure from source with go/parser and
// go/types. `go list` never lists _test.go files, so test code is never
// analyzed — which is exactly the exemption ctxflow wants.
//
// Findings are suppressed line by line with
//
//	//permlint:ignore <analyzer> <reason>
//
// on the offending line or the line above; omitting the analyzer name
// suppresses every analyzer on that line. The reason is free text but
// should say why the invariant does not apply.
//
// # ctxflow
//
// The service attributes every query to a request context: cancellation
// (client gone, deadline expired, server draining) must propagate from the
// HTTP layer through the session to the evaluator's per-tuple cancellation
// checkpoints. A context.Background() or context.TODO() anywhere on that
// path silently severs the chain — the query keeps running after the
// client gave up, holding its admission token. ctxflow therefore forbids
// both constructors outside main packages (the process entry point owns
// the root context) and test files, requires context.Context parameters to
// come first, and rejects explicit nil contexts.
//
// # errclass
//
// The service maps engine errors onto stable error classes (timeout,
// canceled, budget, compile, ...) that tests and the load harness key on.
// That mapping works only if errors keep their identity on the way up:
// sentinels must be compared with errors.Is (a fmt.Errorf-wrapped
// eval.ErrCanceled fails ==), wrapping must use %w (a %v flattens the
// chain to a string), and HTTP handlers must route errors through the
// classifier rather than calling http.Error or writing 4xx/5xx statuses
// ad hoc.
//
// # deferclose
//
// Sessions, HTTP bodies, CSV files and per-request timeout contexts are
// all acquire/release pairs, and a release that is not deferred is a
// release that an early return or panic skips. deferclose finds short
// variable declarations whose call produces a releasable value — anything
// with a niladic Close method, or a context.CancelFunc — and flags
// functions that discard it, never release it (the classic
// context.WithTimeout `_ = cancel` leak, which keeps the timer goroutine
// alive), or release it only through a plain non-deferred call. Values
// handed off — passed along, returned, stored, captured by a goroutine —
// move the obligation elsewhere and are not flagged.
package lint
