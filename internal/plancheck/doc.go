// Package plancheck holds Fingerprint, the check that a run never writes
// into a plan the plan cache published: package perm fingerprints every
// plan it admits when plan verification is on (perm.WithPlanCheck, the
// root test suite and the fuzz oracle) and fails a statement whose run
// changed the cached plan it ran.
//
// The package also keeps the per-stage vocabulary — StagePlan, the stage
// names, Verify and Diagnostic — that benchmark/trace.go calls. Verify runs
// no check. Its four families checked the paper's rewrite contract between
// compile stages: Schema(q+) = Schema(q) ++ P(R1) ++ … ++ P(Rn) with every
// provenance column traced to a scan of its base relation (provblock),
// reference resolution and set-operation arity (schema), closed
// decorrelated plans (decorrelate) and hidden sort-key placement (hygiene).
// Every seeded bug of the classes they named that a family caught also
// failed go test ./... with the family switched off — algebra.Bind rejects
// a reference that does not resolve, and the rewrite tests and the
// differential oracles see the wrong rows — so they were deleted.
package plancheck
