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
//   - sort: an Order buffers its input and emits it in order; a LIMIT
//     above, directly or through bag projections, hands it the bound
//     offset+n, and it keeps a top-(offset+n) heap instead (PostgreSQL's
//     bounded sort);
//   - aggregation: the per-group accumulator table;
//   - join builds: the right input, hashed (joinPlan below); a bare scan
//     is read in place, anything else materialized;
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
// the sequential reference: it has its own operator loops, and the
// differential tests and the benchmark's result check compare the pipeline
// against it. Below its loops it shares with the pipeline evalExpr, the
// hash tables of joins and sublinks (slotIndex: buildIndex, find,
// appendKey), splitEqui and the join split Lower decides (joinPlan.matKeys);
// a fault there is alike on both sides, and no differential test finds it
// (ROADMAP item 21). LastStats reports the rows either engine materialized;
// on the reference that is every operator's output, which the root
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
// resolved per row and evalExpr takes no schema. The hash join's key split
// reads slots too, its left keys reading the tuple the join streams and its
// right keys the tuple it builds, through the column maps of any projection
// the streaming join folds off its inputs (below). Hash keys are built in a
// stack buffer and looked up without a copy, so only a new build key
// allocates.
//
// # The physical plan: decisions once, state per run
//
// Lower annotates a bound plan with every decision the executor makes that
// does not depend on the rows (Plan, plan.go), the way a PostgreSQL Plan
// sits beside the PlanState of each execution:
//
//   - every operator, those of sublink queries included, gets a dense ID in
//     first-visit pre-order, its children's IDs and its output width, so
//     the run reads widths instead of building schemas (Op.Schema());
//   - every join gets its physical form (joinPlan: folded inputs and column
//     maps, splitEquiJoin's keys mapped onto the tuples it reads, the
//     name of the base-relation table it builds on) and the split the
//     reference hashes on;
//   - a bag projection over a join that passes its columns through gets
//     the join's output map;
//   - a selection gets its plan (selectPlan): generation, an index split,
//     or, without one, the literal filter.
//
// Package perm lowers a plan once, when the plan cache admits it, and keeps
// the annotation beside the plan, so a cache hit runs it as it is; a plan
// compiled WithoutPlanCache is lowered per statement, and Eval binds and
// lowers the plan it is given. Run executes an annotation. The annotation is
// immutable and shared by every run of the plan, on any goroutine, and
// holds no map, so the plan cache's frozen-plan fingerprint covers it. The
// executor carries each operator's ID beside the operator; a run's state
// (runShared, memo.go) is only what it computed — memos keyed by node ID
// and binding, and the CrossBase tables of generation in a slice by node
// ID. The result's relation is the one that carries the plan's schema; the
// bags the run materializes below it are unnamed, of the node's width.
//
// # Joins
//
// The streaming executor runs Join, LeftJoin and Cross through one loop
// (streamJoin) over the physical form Lower decided (joinPlan, hashjoin.go),
// so neither a cache hit nor a correlated call of a join decides or
// allocates anything for it:
//
//   - Inputs: an input that is a pass-through bag projection over stored
//     rows — a Scan, or selections over one, as the rewrite wraps every
//     base access (a, b, a→prov_a, b→prov_b) — is folded away, and the
//     join reads the stored tuples through a column map. An input that
//     builds its rows (a join, an aggregate) is read as it is, with no map:
//     folded, it would build wider rows.
//   - Keys: splitEquiJoin's split of the condition, its keys mapped
//     through the column maps. The residual reads the join's own row,
//     which the loop fills in one scratch row per call, its left half once
//     per left row and its right half per candidate, so a rejected
//     candidate allocates nothing.
//   - Output: the join's own row, or the pass-through bag projection
//     directly above the join, which streamProject hands to the join
//     instead of copying each row again. Each emitted row is built once,
//     from the two tuples; the right columns of a left-join row without a
//     candidate are left NULL, the zero Value, so no pad is kept.
//   - Build: a right input that is a bare Scan keyed on columns is hashed
//     into the table a correlated selection on the same columns attaches
//     to the relation (below): same name, same table, built by whichever
//     asks first. Any other right input is materialized and hashed for
//     the run. A scan read in place of a projection folded off it is
//     charged one row a slot, as the projection's materialized rows were,
//     so the row budget and PeakRows do not depend on the fold; a scan the
//     plan builds as it is charges nothing, as a view of a base relation
//     does not.
//
// The materializing reference keeps its own join loops (evalJoin,
// evalCross, hashJoin), which build the concatenated row before the
// residual decides and never fold or attach: it is the oracle the fold is
// checked against. Its key split is the annotation's too, over the inputs
// as they are (joinPlan.matKeys).
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
// it. Run state is such memos (memo.go), keyed by node ID and binding:
// bags, verdicts, hashed sets, indexes and Gen's witnesses. An uncorrelated
// subplan has the empty binding. A sublink finds its query's ID in the
// annotation. The one state that outlives a run is a table over a base
// relation, below.
//
// A memo miss still runs the inner query, and a correlated one filters its
// input anew for every binding. In the streaming executor a selection under
// enclosing scopes whose condition has conjuncts x = y or x =n y — x reading
// only the selection's input, y only enclosing scopes — is answered from a
// hash index instead (index.go), the way PostgreSQL answers such a probe
// from an index on the correlation column:
//
//   - What is indexed: the slots of the selection's input, grouped by the
//     key the hash joins' key builder gives x, as int32 slot numbers (one
//     slot array grouped by key, an array of bucket starts and a key →
//     bucket map). Each call probes with y's values and runs the remaining
//     conjuncts on the bucket only. A = key skips NULL on either side; a =n
//     key matches NULL to NULL.
//   - The decline rule: the index is used only where it cannot change which
//     rows are kept or which error is raised, because the literal filter
//     evaluates every conjunct on rows the index never visits. Condition and
//     input may hold only references, constants and parameters, comparisons,
//     =n, IS NULL, AND/OR/NOT (a bare reference only as a comparison
//     operand), and EXISTS/ANY/ALL sublinks over scans, selections,
//     projections, products and joins of such expressions. Arithmetic,
//     functions, CAST, CASE, scalar sublinks, aggregates and VALUES keep the
//     literal filter.
//   - When it is built: the first call for a (selection, input binding)
//     pair runs the literal filter and the second looks for the index or
//     builds it, so a selection evaluated once per statement never builds
//     and an INSERT pays for nothing.
//   - How long it lives: an input that is a bare scan keyed on columns is
//     indexed once per relation version. The index is attached to the
//     catalog's *rel.Relation (rel.Relation.Attach, through baseIndex),
//     keyed by the sorted columns and the =/=n of each key, and every later
//     statement in any session that reads that version probes it. A join
//     whose build side is a bare scan keyed on columns hashes it into the
//     same table under the same name, so a cached plan over an unchanged
//     relation builds nothing, and a join and a selection share what
//     either built. A relation a DB returns
//     is never mutated, and INSERT publishes a new one, so the index dies
//     with its version and needs no invalidation or eviction. A build that
//     fails or is cancelled is not attached, a concurrent twin build is
//     discarded, and an attached index is never mutated. A relation keeps
//     at most eight attached indexes; past that, and for any other input
//     (one that reads enclosing scopes, computes its keys, keys a column
//     twice or is not a scan), the index is built once per run and binding
//     of its free slots, as a join's table is built once per run.
//   - What it is charged: nothing over a base relation, like a join's
//     build over a bare scan; one row per row group for an input that had
//     to be materialized. An attached index is live heap that no run accounts:
//     4 bytes a slot and one map entry a distinct key (root
//     TestSharedIndexMemoryBudget), at most eight of them a relation.
//   - Streaming only: the materializing reference keeps the literal filter
//     and is the differential oracle. Stats.IndexBuilds counts the indexes
//     the run built, and IndexProbes the calls answered from an index,
//     built or found attached; a join's table counts in neither.
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
// each key up in a slot index over each CrossBase leaf, the structure hash
// joins and selection indexes build, once per node and run under =n. It
// emits t × G1(t) × … × Gn(t) with multiplicity n_t · ∏ counts. G(t) is memoized per binding of the slots Q, J and E
// read.
//
//   - Where it applies: the selection's child is a Cross chain whose
//     rightmost inputs are each keyed by exactly one Csub+ conjunct, a
//     sublink's inputs adjacent, and each reads no enclosing scope. A key
//     compares a CrossBase slot with a slot of Q's row; the IS NULL slots
//     are exactly the key slots; J's conjuncts precede the keys; J, Q and E
//     read no CrossBase slot, and neither does any other conjunct. The shape
//     is recognised in the bound plan, whoever produced it, and decided by
//     Lower beside the index split (genPlan); the leaf tables a run builds
//     are its state (genRun), never the plan's. Anything else, and a
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
//   - The CrossBase inputs are charged as a join charges its build side,
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
// TestAllocSlopes measures the per-row paths: the streaming selection and
// projection, the probe and the build of a hash join on either executor —
// on the streaming one also a build over the rewrite's projection of a
// selection, a left join's padded rows and candidates a residual rejects —
// the sublink probes (probeExists, probeScalar, quantify over a memoized
// bag, hashedAny, a probe answered from a correlated index) and generation,
// on a memoized binding and on a new one. It runs one query per path over
// two input sizes and pins the allocations one more input row costs under a
// ceiling. A streaming join allocates one row per emitted row and nothing
// per rejected candidate; its build allocates nothing a row over an
// attached table and one map key per new key over any other input. The
// reference's joins still pay a concatenated row per candidate and a
// projected row above. A change that adds a per-row allocation fails it;
// one that removes an allocation lowers the ceiling.
package eval
