// Package service wraps the perm engine in a production-shaped HTTP/JSON
// server: the network surface of the reproduction's "serve heavy
// concurrent traffic" direction. cmd/permd is the binary; cmd/permload is
// the matching corpus differential checker.
//
// # Endpoints
//
//	POST /query    run a statement (plain or SELECT PROVENANCE) and return rows
//	POST /exec     run DDL/DML: CREATE TABLE/VIEW, INSERT, DROP (queries work too)
//	POST /advise   rank the provenance rewrite strategies for a query
//	GET  /healthz  liveness (503 while draining)
//	GET  /stats    per-endpoint request counts, in-flight gauge, latency histograms,
//	               plan-cache hits, misses, stale plans, evictions and entries
//
// Request options (strategy, executor mode, timeout) travel per request;
// see the request types in handlers.go for the JSON shapes. Mode
// "materialize" runs the reference executor. Unknown fields are ignored, so
// a client that still sends the retired "parallelism" field gets the same
// rows.
//
// # Sessions and snapshots
//
// Every request may name a session. Sessions are created on first use; a
// session is a perm.Session, a child statement scope whose copy-on-write
// table and view layers (catalog.Layer) sit above the server's shared base
// database: session DDL shadows the base without writing to it, so
// sessions never observe each other's tables or views, while all of them
// share one copy of the base data. Each statement — DDL or query — executes
// against one immutable snapshot that pins the current version of the
// session layer and of the base beneath it. A long-running provenance query
// therefore never blocks concurrent DDL, is never torn by it — not even by
// DDL on the base — and two sessions can CREATE/INSERT/DROP the same names
// freely. A request without a session name runs against a one-shot private
// session over the base.
//
// # Cancellation and admission
//
// Every query runs under a context.Context assembled from the client
// connection (disconnect aborts evaluation), the server default timeout,
// and the request's timeout_ms (capped by the server maximum). The
// deadline propagates into both executors' row loops via the evaluator's
// cancellation checkpoints — stream emit, breaker fills, bag fills — so
// provenance rewrites that multiply scan counts (the paper's Gen strategy)
// stop promptly. Expired requests
// report error class "timeout" over JSON.
//
// Admission control sheds load instead of queueing unboundedly: at most
// MaxConcurrent statements execute at once, and requests beyond that are
// rejected with 429 and a Retry-After header. During shutdown the server
// drains: admitted requests complete (no dropped responses), new work is
// rejected with 503, and Shutdown returns when the last in-flight request
// finishes or its drain deadline expires.
package service
