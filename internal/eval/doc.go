// Package eval is the bag-semantics executor of the Perm reproduction. It
// interprets algebra plans (Figure 1 of Glavic & Alonso, EDBT 2009) over an
// in-memory catalog, including correlated and nested sublinks in selection,
// projection and join conditions.
//
// # Execution model
//
// The executor is a push-based streaming pipeline: every operator emits its
// output rows to a consumer callback (emitFn) instead of materializing a
// bag, and rows flow from the scans at the bottom straight through
// selections, projections, unions, join probes and limits to the single
// materialization point at the top of the plan. Pipeline breakers buffer
// exactly the state their semantics force:
//
//   - sort: a LIMIT over an ORDER BY keeps a top-(offset+n) heap; an
//     OFFSET-only cut sorts its input;
//   - aggregation: the per-group accumulator table;
//   - hash-join and nested-loop builds: the materialized right input;
//   - intersection/difference: both inputs (full multiplicities);
//   - DISTINCT: the dedup set (rows still stream out on first sight).
//
// A stop signal (an errStop sentinel travelling the error path) propagates
// from a satisfied consumer through every producer beneath it, ceasing the
// upstream scans: a LIMIT that has its rows, or a sublink probe that has
// its answer, terminates the pipeline below it early. The signal is
// absorbed by the operator that raised it and never escapes Eval.
//
// DisableStreaming restores operator-at-a-time full materialization (every
// operator's output built as a counted bag). The materializing engine is
// the sequential reference: it has its own operator code, the paper figures
// run on it, and the differential tests, the benchmark's result check and
// the streaming table (permbench -fig stream) compare the pipeline against
// it. LastStats reports the rows either engine materialized. A context
// attached with WithContext is
// polled during execution so long-running plans can be cancelled (the
// benchmark harness uses this for the paper's timeout rule), and MaxRows
// bounds total materialization (the Gen strategy's CrossBase cross products
// can exhaust memory long before a clock fires).
//
// # Sublink probes, early termination and caching
//
// Like the PostgreSQL executor Perm ran on, both executors evaluate an
// uncorrelated subplan once per query (InitPlan behaviour) and hash an
// uncorrelated "= ANY" sublink into a set probed per outer tuple (hashed
// subplans).
//
// Under the streaming pipeline an EXISTS or scalar probe pulls rows from
// the subplan and stops at its deciding row: EXISTS at any row, a scalar
// sublink at its second. An early-terminated probe has seen only part of the
// subplan's bag, so the memo never stores partial bags — it stores the
// verdict (EXISTS' boolean, the scalar value), keyed exactly like the bag
// memo by the resolved values of the subplan's free parameters. ANY/ALL
// materializes the subplan under either executor: the bag answers every test
// value of a binding, which one verdict cannot.
//
// Beyond PostgreSQL, correlated sublinks — the case §4 of the paper
// identifies as inherently expensive under provenance rewriting — are
// memoized per binding: the subplan's free attribute references are resolved
// against the enclosing scope and their encoded values key a cache of
// results, so outer tuples that agree on every correlated parameter share
// one evaluation instead of re-executing the subplan once per outer tuple.
// The streaming executor always memoizes. DisableSublinkMemo restores the
// strict re-evaluating SubPlan behaviour on the materializing reference only
// (the benchmark harness sets it when reproducing the paper's figures, whose
// cost model assumes it). The tests compare the streaming executor and the
// memoized reference against the reference with the memo off, so the memo
// is checked against its ablation; the hashed set, which both executors
// use, is checked against the generic quantifier value by value.
//
// # Per-row allocations
//
// TestAllocSlopes measures the per-row paths: the streaming selection,
// projection and hash-join probe, the materializing hash join, and the
// sublink probes (probeExists, probeScalar, quantify over a memoized bag,
// hashedAny). It runs one query per path over two input sizes and pins the
// allocations one more input row costs under a ceiling.
// A change that adds a per-row allocation fails it; one that removes an
// allocation lowers the ceiling.
//
// # Parallelism
//
// Setting Evaluator.Parallelism > 1 lets one streaming Eval call fan the
// per-outer-binding sublink work out across a pool of worker goroutines.
// The unit of fan-out is a pipeline segment: the producer streams child rows
// into per-worker mailboxes dealt round-robin (bounded channels — the input
// is never materialized), each worker runs the segment body (where the
// sublink probes live) over its rows into a private output buffer, and the
// buffers merge in worker order, so the output bag is deterministic.
// Segments open at the topmost selection, projection or join probe whose
// expression carries a sublink. The invariants that keep this safe:
//
//   - Fan-out happens only at the top level of a plan. Workers, segment
//     producers, and any evaluation under a correlated scope run
//     sequentially, so one Eval has at most one segment open at a time and
//     Parallelism alone bounds its live workers — no token pool is needed.
//   - Each worker appends to a private output relation; outputs merge in
//     worker order. Materialized relations are immutable once built.
//   - All workers of one Eval share a single run state: the row budget
//     (atomic) and the memo tables (mutex-guarded). Workers may race to
//     compute the same memo entry; the duplicated work is benign and the
//     publish is serialized.
//   - A panic on a worker is recovered with its stack and raised again on
//     the goroutine that called Eval, so it fails like a sequential run.
//
// The materializing executor is the sequential reference: it ignores
// Parallelism. The public API exposes the pool as perm.WithParallelism.
package eval
