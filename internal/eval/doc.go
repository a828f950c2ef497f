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
//   - intersection/difference: both inputs, and a count map over the right
//     one that the left input's slots consume (a bag may hold one tuple in
//     several slots; the map sums them);
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
// the sequential reference: it has its own operator code, and the
// differential tests and the benchmark's result check compare the pipeline
// against it. LastStats reports the rows either engine materialized; on the
// reference that is every operator's output, which the root
// TestPaperFigureShapes counts as the work of a plan. A context attached
// with WithContext is polled during execution so long-running plans can be
// cancelled, and MaxRows bounds total materialization (the Gen strategy's
// CrossBase cross products can exhaust memory long before a clock fires).
//
// # Bound plans
//
// The executor runs bound plans (algebra.Bind): every attribute reference is
// a (scope depth, slot) pair, read as t[slot] at depth 0 and as the slot of
// the enclosing tuple depth sublink levels out otherwise, so no name is
// resolved per row and evalExpr takes no schema. Package perm binds once per
// compiled plan and runs it with EvalBound; Eval binds the plan it is given
// first. The hash join's key split reads slots too: it is computed once per
// join node and run, its right-side keys rebased onto the right tuple. Hash
// keys are built in a stack buffer and looked up without a copy, so only a
// new build key allocates.
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
// memo by the values of the subplan's free slots. ANY/ALL
// materializes the subplan under either executor: the bag answers every test
// value of a binding, which one verdict cannot.
//
// Beyond PostgreSQL, correlated sublinks — the case §4 of the paper
// identifies as inherently expensive under provenance rewriting — are
// memoized per binding: binding the plan recorded on each sublink the slots
// its subplan reads outside itself (algebra.Sublink.Free), the probe reads
// those slots of the enclosing tuples and their encoded values key a cache
// of results, so outer tuples that agree on every correlated parameter share
// one evaluation instead of re-executing the subplan once per outer tuple.
// The key is built in a stack buffer, so a memo hit allocates nothing for
// it. Every piece of run state is such a memo (memo.go), keyed by plan node
// and binding: bags, verdicts, hashed sets, join splits, selection plans,
// indexes and Gen's witnesses. An uncorrelated subplan, and a decision made
// once per node, has the empty binding.
//
// A memo miss still runs the inner query, and a correlated one filters its
// input anew for every binding. In the streaming executor a selection under
// enclosing scopes whose condition has conjuncts x = y or x =n y — x reading
// only the selection's input, y only enclosing scopes — is answered from a
// hash index instead (index.go), the way PostgreSQL answers such a probe
// from an index on the correlation column:
//
//   - What is indexed: the selection's input, hashed on x in the table and
//     with the key builder the hash joins use, once per run and per binding
//     of the input's own free slots. Each call probes with y's values and
//     runs the remaining conjuncts on the bucket only. A = key skips NULL on
//     either side; a =n key matches NULL to NULL.
//   - The decline rule: the index is used only where it cannot change which
//     rows are kept or which error is raised, because the literal filter
//     evaluates every conjunct on rows the index never visits. Condition and
//     input may hold only references, constants and parameters, comparisons,
//     =n, IS NULL, AND/OR/NOT (a bare reference only as a comparison
//     operand), and EXISTS/ANY/ALL sublinks over scans, selections,
//     projections, products and joins of such expressions. Arithmetic,
//     functions, CAST, CASE, scalar sublinks, aggregates and VALUES keep the
//     literal filter.
//   - Build on second call: the first call for a (selection, input binding)
//     pair runs the literal filter and the second builds the index, so a
//     sublink with one binding never pays for a build.
//   - The index is charged like a hash-join build: nothing over a base
//     relation, one row per row group for an input that had to be
//     materialized.
//   - Streaming only: the materializing reference keeps the literal filter
//     and is the differential oracle. Stats.IndexBuilds and IndexProbes
//     count the builds and the calls answered from an index.
//
// # Generating Gen's CrossBase witnesses
//
// Rule G1 of the Gen strategy is σ_{C ∧ Csub1+ ∧ … ∧ Csubn+}(T × CB1 × … ×
// CBn), each Csub+ of the form EXISTS(σ_{J ∧ P =n P′}(Q)) ∨ (¬EXISTS(E) ∧
// P IS NULL). Executed literally, every row of T meets every one of the
// ∏(|Ri|+1) CrossBase rows and a membership test runs per pair. The
// streaming executor generates the witnesses instead (gen.go), as the
// dependent join Hernández et al. give as the semantics of correlation:
// for a row t of T it evaluates C, and per sublink Q under t's binding
// (memoized as a sublink is), keeps the rows where J holds, collects their
// distinct keys P′, adds the all-NULL key when ¬EXISTS(E) holds, and looks
// each key up in a hash table over the CrossBase leaves, built once per node
// and run under =n. It emits t × G1(t) × … × Gn(t) with multiplicity
// n_t · ∏ counts. G(t) is memoized per binding of the slots Q, J and E
// read.
//
//   - Where it applies: the selection's child is a Cross chain whose
//     rightmost inputs are each keyed by exactly one Csub+ conjunct, a
//     sublink's inputs adjacent, and each reads no enclosing scope. A key
//     compares a CrossBase slot with a slot of Q's row; the IS NULL slots
//     are exactly the key slots; J's conjuncts precede the keys; J, Q and E
//     read no CrossBase slot, and neither does any other conjunct. The shape
//     is recognised in the bound plan, whoever produced it, and decided once
//     per node and run beside the index split. Anything else, and a
//     selection whose CrossBase has an empty input, runs the literal
//     selection.
//   - Why the bag is the literal's: a CrossBase row r of sublink i is kept
//     iff some row of Q with J True has key r.P, or r.P is all NULL and
//     ¬EXISTS(E). Distinct keys select disjoint CrossBase rows, so each is
//     emitted once, as the literal EXISTS admits it once.
//   - Why the error is the reference's: CrossBase always holds the all-NULL
//     row, so for every row of T the literal evaluates the same expressions
//     on the same rows whatever the CrossBase row — C, and per sublink Q in
//     full and J on each of its rows (the materializing reference runs the
//     membership query to the end). Generation evaluates the conjuncts in
//     the literal's order and stops where the literal's AND stops for every
//     CrossBase row: at a False condition over T, or an empty G(t), which
//     is False for every row of that sublink. A condition that is Unknown
//     emits nothing but does not stop, as in the literal. E is evaluated
//     only when some CrossBase row's key was not found, as the literal's OR
//     evaluates it only for such rows. No error-freedom gate is needed.
//   - The CrossBase inputs are charged as streamCross charges a build side,
//     once per node and run, and generated rows stream.
//   - Streaming only: the materializing reference keeps the literal G1 and
//     is the differential oracle; the plan and Explain still show G1.
//     Stats.Generated counts the rows of T answered by generation.
//
// The streaming executor always memoizes. DisableSublinkMemo restores the
// strict re-evaluating SubPlan behaviour on the materializing reference
// only. The tests compare the streaming executor and the memoized reference
// against the reference with the memo off, so the memo is checked against
// its ablation; the hashed set, which both executors use, is checked against
// the generic quantifier value by value.
//
// # Per-row allocations
//
// TestAllocSlopes measures the per-row paths: the streaming selection,
// projection and hash-join probe, the materializing hash join, and the
// sublink probes (probeExists, probeScalar, quantify over a memoized bag,
// hashedAny, a probe answered from a correlated index) and generation, on a
// memoized binding and on a new one. It runs one query
// per path over two input sizes and pins the allocations one more input row
// costs under a ceiling.
// A change that adds a per-row allocation fails it; one that removes an
// allocation lowers the ceiling.
package eval
