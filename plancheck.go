package perm

import (
	"fmt"

	"perm/internal/algebra"
	"perm/internal/opt"
	"perm/internal/plancheck"
	"perm/internal/rewrite"
	"perm/internal/sql"
)

// PlanCheckMode selects how much the per-stage plan verifier
// (internal/plancheck) interferes with a query.
type PlanCheckMode uint8

// The plan-verification modes.
const (
	// PlanCheckOff disables per-stage verification (no overhead).
	PlanCheckOff PlanCheckMode = iota
	// PlanCheckLog verifies every stage and records findings on the Result
	// without failing the query.
	PlanCheckLog
	// PlanCheckStrict verifies every stage and fails the query on the first
	// non-advisory finding, naming the stage that introduced it. It also
	// fingerprints the plans the plan cache admits and fails a statement
	// whose run changed the cached plan it ran.
	PlanCheckStrict
)

// String returns the flag spelling (off, log, strict).
func (m PlanCheckMode) String() string {
	switch m {
	case PlanCheckOff:
		return "off"
	case PlanCheckLog:
		return "log"
	case PlanCheckStrict:
		return "strict"
	default:
		return fmt.Sprintf("plancheck(%d)", uint8(m))
	}
}

// ParsePlanCheckMode parses a flag spelling of a mode.
func ParsePlanCheckMode(s string) (PlanCheckMode, error) {
	switch s {
	case "off":
		return PlanCheckOff, nil
	case "log":
		return PlanCheckLog, nil
	case "strict":
		return PlanCheckStrict, nil
	default:
		return PlanCheckOff, fmt.Errorf("perm: unknown plancheck mode %q (want off, log or strict)", s)
	}
}

// DefaultPlanCheck is the verification mode queries use when WithPlanCheck
// is not given. It defaults to off in production; the test harness and the
// fuzzer turn it to strict so every compiled plan is structurally verified
// at every stage and no run writes into a cached plan. Set it before
// issuing queries — it is read per query, unsynchronized.
var DefaultPlanCheck = PlanCheckOff

// WithPlanCheck sets the per-stage plan verification mode for one query.
func WithPlanCheck(mode PlanCheckMode) Option {
	return func(c *queryConfig) { c.planCheck = mode }
}

// PlanFinding is one plan-verifier finding surfaced on a Result (log mode)
// or in VerifyPlan output.
type PlanFinding struct {
	// Stage names the compile stage the finding was observed at:
	// "translate", "rule/<rule>", "rewrite/<strategy>" or "optimize".
	Stage string
	// Check is the reporting check.
	Check string
	// Path addresses the operator from the plan root.
	Path string
	// Message describes the violation.
	Message string
	// Advisory marks informational findings; only non-advisory ones fail
	// strict verification.
	Advisory bool
}

// String renders the finding like a plancheck diagnostic.
func (f PlanFinding) String() string {
	return plancheck.Diagnostic{Check: f.Check, Stage: f.Stage, Path: f.Path, Message: f.Message, Advisory: f.Advisory}.String()
}

// PlanStage is the verification outcome of one compile stage.
type PlanStage struct {
	// Stage is the stage name, in pipeline order.
	Stage string
	// Findings are the stage's findings (advisory included), empty when
	// the stage verified clean.
	Findings []PlanFinding
}

// planVerifier accumulates per-stage verification across one compile.
type planVerifier struct {
	mode     PlanCheckMode
	stages   []PlanStage
	findings []PlanFinding
	failure  error
}

func newPlanVerifier(mode PlanCheckMode) *planVerifier {
	return &planVerifier{mode: mode}
}

// stage verifies one stage plan and records its findings. In strict mode
// the first non-advisory finding becomes the verifier's failure.
func (pv *planVerifier) stage(sp plancheck.StagePlan) {
	if pv.mode == PlanCheckOff {
		return
	}
	ps := PlanStage{Stage: sp.Stage}
	for _, d := range plancheck.Verify(sp) {
		f := PlanFinding{Stage: d.Stage, Check: d.Check, Path: d.Path, Message: d.Message, Advisory: d.Advisory}
		ps.Findings = append(ps.Findings, f)
		pv.findings = append(pv.findings, f)
		if pv.failure == nil && !d.Advisory && pv.mode == PlanCheckStrict {
			pv.failure = fmt.Errorf("plancheck: %s", d)
		}
	}
	pv.stages = append(pv.stages, ps)
}

// hook adapts the verifier to the rewriter's per-rule stage emissions.
// Rule results are nested plans: they may keep the correlations their
// inputs had, and their schema contract is Input ++ Prov.
func (pv *planVerifier) hook() rewrite.StageHook {
	if pv.mode == PlanCheckOff {
		return nil
	}
	return func(st rewrite.Stage) {
		pv.stage(plancheck.StagePlan{
			Stage:     plancheck.RuleStage(st.Rule),
			Plan:      st.Plan,
			Nested:    true,
			Input:     st.Input,
			Rewritten: true,
			Original:  st.Input.Schema(),
			Prov:      st.Prov,
		})
	}
}

// planned is one compiled statement: the optimised plan, bound, and what
// executing and presenting it takes, and nothing of what compiling it went
// through — neither the translated plan nor the rewrite's result — so that
// the plan cache retains no more than a hit needs.
type planned struct {
	plan algebra.Op
	// dataCols is the number of visible data columns; hidden the number of
	// hidden sort-key columns that follow them (see sql.Translated.Hidden).
	// The columns after those are provenance columns, prov[i].width of them
	// from the i-th base relation access, prov[i].relation.
	dataCols int
	hidden   int
	prov     []provGroup
	// findings are the verifier's findings, replayed on every run.
	findings []PlanFinding
	// pattern is the statement's literal pattern within its family (see
	// sql.Lexed.Lift); set on plans compiled for the plan cache.
	pattern string
	// deps are the relations the statement named with what they were bound
	// to: the plan is valid wherever they still are (see planCache).
	deps []dep
	// frozen is the plan's fingerprint when the plan cache admitted it under
	// PlanCheckStrict, 0 otherwise: a cached plan serves every statement of
	// its shape in every session, and no run may write into it.
	frozen uint64
}

// fingerprint hashes everything of p but its frozen field: the plan tree,
// the presentation fields, and the view definitions and table shapes of its
// dependencies.
func (p *planned) fingerprint() uint64 {
	q := *p
	q.frozen = 0
	return plancheck.Fingerprint(&q)
}

// provGroup is the provenance columns of one base relation access.
type provGroup struct {
	relation string
	width    int
}

// compile runs analyze → translate → rewrite → optimize → bind over one
// snapshot, verifying after every stage but the last per cfg.planCheck and
// returning the verified stages beside the plan. In strict mode the first
// non-advisory finding aborts with an error naming the failing stage.
func (sn snapshot) compile(stmt *sql.Stmt, cfg queryConfig) (*planned, []PlanStage, error) {
	env := sn.env()
	if err := sql.Analyze(env, stmt); err != nil {
		return nil, nil, err
	}
	tr, err := sql.Translate(env, stmt)
	if err != nil {
		return nil, nil, err
	}
	pv := newPlanVerifier(cfg.planCheck)
	plan := tr.Plan
	pv.stage(plancheck.StagePlan{Stage: plancheck.StageTranslate, Plan: plan, Hidden: tr.Hidden})
	if pv.failure != nil {
		return nil, nil, pv.failure
	}
	var res *rewrite.Result
	if tr.Provenance {
		strat, err := cfg.strategy.internal()
		if err != nil {
			return nil, nil, err
		}
		res, err = rewrite.RewriteHooked(plan, strat, pv.hook())
		if err != nil {
			return nil, nil, err
		}
		if pv.failure != nil {
			return nil, nil, pv.failure
		}
		plan = res.Plan
		pv.stage(plancheck.StagePlan{
			Stage:     plancheck.RewriteStage(string(cfg.strategy)),
			Plan:      plan,
			Rewritten: true,
			Original:  res.Original,
			Prov:      res.Prov,
			Hidden:    tr.Hidden,
		})
		if pv.failure != nil {
			return nil, nil, pv.failure
		}
	}
	if !cfg.noOptimize {
		plan = opt.Optimize(plan)
		sp := plancheck.StagePlan{Stage: plancheck.StageOptimize, Plan: plan, Hidden: tr.Hidden}
		if res != nil {
			sp.Rewritten = true
			sp.Original = res.Original
			sp.Prov = res.Prov
		}
		pv.stage(sp)
		if pv.failure != nil {
			return nil, nil, pv.failure
		}
	}
	// Bind last: every stage above verified the named plan, and the plan
	// cache keeps, fingerprints and runs the bound one (see algebra.Bind).
	bound, err := algebra.Bind(plan)
	if err != nil {
		return nil, nil, err
	}
	p := &planned{
		plan:     bound,
		dataCols: plan.Schema().Len() - tr.Hidden,
		hidden:   tr.Hidden,
		findings: pv.findings,
		deps:     sn.depsOf(tr.Relations),
	}
	if res != nil {
		p.dataCols = res.Original.Len() - tr.Hidden
		for _, src := range res.Prov {
			p.prov = append(p.prov, provGroup{relation: src.Rel, width: len(src.Attrs)})
		}
	}
	return p, pv.stages, nil
}

// VerifyPlan compiles a statement and verifies every stage without
// executing it, returning the per-stage findings (advisory included) in
// pipeline order. Compile and rewrite errors are returned as-is; verifier
// findings never produce an error here. WithStrategy and WithoutOptimizer
// shape the verified pipeline exactly as they would a query. The statement
// is compiled as written, never through the plan cache.
func (sc *scope) VerifyPlan(query string, opts ...Option) ([]PlanStage, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	cfg := newQueryConfig(opts)
	cfg.planCheck = PlanCheckLog
	_, stages, err := sc.snapshot().compile(stmt, cfg)
	return stages, err
}
