// Package fuzz is the differential query fuzzer of the engine: a seeded,
// grammar-driven random query generator over a fixed NULL-rich schema —
// three integer tables (r, s, t) and a string-typed table (u) — plus an
// oracle that executes every generated query under the full engine matrix
// and demands agreement.
//
// The generator is kind-aware: it tracks the value kind of every column
// (including derived-table and aggregate outputs) and only emits
// well-typed comparisons, function calls (upper/lower/length/substr,
// || concatenation, LIKE, CAST) and set-operation arms, so a rejection by
// the semantic analyzer is itself a fuzz failure. ORDER BY and GROUP BY
// keys are sometimes spelled as select-list ordinals, which the oracle
// order-checks like named keys.
//
// # The oracle
//
// One generated query runs under every executor mode — the streaming
// pipeline, the materializing reference, and the reference on the plan the
// optimizer did not touch — and, when it carries no
// LIMIT/OFFSET, additionally as SELECT PROVENANCE under every rewrite
// strategy (Gen, Left, Move, Unn, UnnX, Auto) × the same executor matrix.
// The oracle asserts:
//
//   - the plain query succeeds everywhere with the identical presented rows:
//     the identical sequence under a top-level ORDER BY, the identical bag
//     without one (SQL defines no order there, and the engine's differs
//     between executor modes);
//   - where top-level ORDER BY keys are visible output columns, the
//     sequence is actually sorted by them;
//   - per strategy, all executor modes agree on the rows, compared the same
//     way, and on the error: no mode may fail where another succeeds, and only
//     rewrite-stage errors (an inapplicable strategy) are legitimate;
//   - all strategies that succeed produce the identical provenance bag;
//   - every provenance result's visible rows equal the plain result's rows
//     as a set (the rewrite preserves the original result).
//
// The generator stays inside the engine's defined surface so any oracle
// failure is a bug, not noise: LIMIT/OFFSET only appear under ORDER BY
// (an unordered limit's row choice is unspecified), scalar subqueries are
// global aggregates (guaranteed single-row), arithmetic avoids division
// (whose by-zero error would make error/success legitimately
// order-dependent) and stays inside the tiny value domain (so checked
// int64 arithmetic never overflows), string values and LIKE patterns come
// from small digit-free pools (so rendered cells never parse as numbers
// and casts to string never collide with the numeric order check), and
// all table references use generation-unique aliases.
//
// # Reproducing a failure
//
// Every query is a pure function of (seed, query index): NewDB(seed)
// builds the data, NewGen(seed).Next() yields the query sequence. A
// failure report names both; replay it with
//
//	q := fuzz.NewGen(seed) // then call Next() index+1 times
//	err := fuzz.Check(fuzz.NewDB(seed), q)
//
// or re-run the long-form fuzzer: go run ./cmd/permfuzz -seed S -n N.
// Shrink minimizes a failing query by structural reduction; minimized
// repros are checked in under testdata/fuzz-corpus/ and replayed by
// TestFuzzCorpus on every test run (files may declare an expected error
// with a "-- expect-error: <substring>" header line; all other corpus
// queries must pass the full oracle). ReadCorpus is the one reader of that
// format; the service corpus test and cmd/permload use it too.
package fuzz
