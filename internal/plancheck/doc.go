// Package plancheck is a static verifier over algebra plans, run between
// compile stages: after translation, after every rewrite-rule application
// the rewriter exposes (see rewrite.RewriteHooked), after each strategy's
// final rewritten plan, and after optimization. It is permlint one level
// down: named checks producing Diagnostic findings with plan-path
// locations, plus an advisory tier that never fails strict verification.
//
// The checks encode the structural invariants that Glavic & Alonso's
// correctness argument (EDBT 2009) relies on but that the differential
// fuzzer only observes end-to-end:
//
//   - schema — the well-formedness every stage must preserve: operator
//     output schemas derive from their children, attribute references
//     resolve uniquely against their operator's input (or an enclosing
//     correlation scope, the paper's nested-subquery binding rule),
//     set-operation inputs agree on arity, literal rows match their
//     declared schema. A violation localizes a miscompilation to the stage
//     that introduced it.
//
//   - provblock — the central rewrite invariant (§3.1, Figure 4): for every
//     rewritten plan q+, Schema(q+) = Schema(q) ++ P(R1) ++ … ++ P(Rn),
//     with each P(Ri) named prov_<rel>[_<n>]_<attr> and the block
//     contiguous after the data columns. On complete rewritten queries it
//     additionally traces every provenance column through pass-through
//     projections, joins and set operations down to a scan of the base
//     relation it claims to capture — or to the NULL padding that rules
//     for unions, outer joins and Gen's CrossBase deliberately introduce.
//     Computed provenance columns, flows through aggregations (which rule
//     R5 must route around, not through) and scans of the wrong relation
//     are findings.
//
//   - decorrelate — the soundness condition of the unnesting strategies:
//     once Unn/UnnX claim applicability, their join-based plans must be
//     closed (no free references). Complete plans at any stage must have
//     no free variables at all; intermediate rule results may keep exactly
//     the correlations their inputs already had, and nothing more.
//
//   - hygiene — structural conventions the pipeline depends on: hidden
//     ORDER-BY sort keys (the translator's ord#N columns) appear only as a
//     trailing stripped block of the data region, Limit offsets are
//     non-negative, scans carry their alias on every attribute, grouping
//     output names are unique (the PR 3 ambiguity bug, made structural),
//     and only count(*) takes no argument.
//
//   - cartesian (advisory) — missed-optimization shapes on post-optimize
//     plans: surviving cross products and collapsible pass-through
//     projection chains. Reported by DB.VerifyPlan, never an error.
//
// Verify runs the catalog over one StagePlan; the perm package wires it
// into the pipeline behind WithPlanCheck and DB.VerifyPlan, and
// TestCorpusPlancheckClean sweeps the fuzz corpus through it under every
// strategy on each go test run.
package plancheck
