package perm

import (
	"strings"

	"perm/internal/algebra"
	"perm/internal/eval"
	"perm/internal/opt"
	"perm/internal/plancheck"
	"perm/internal/rewrite"
	"perm/internal/sql"
)

// DefaultPlanCheck is whether queries check their cached plans when
// WithPlanCheck is not given. It is off in production; the test harness and
// the fuzzer turn it on so that no run writes into a cached plan unnoticed.
// Set it before issuing queries — it is read per query, unsynchronized.
var DefaultPlanCheck = false

// WithPlanCheck turns the frozen-plan check on or off for one query. On,
// the plan cache fingerprints the plans it admits (plancheck.Fingerprint)
// and a statement whose run changed the cached plan it ran fails with
// "plancheck: frozen: …".
func WithPlanCheck(on bool) Option {
	return func(c *queryConfig) { c.planCheck = on }
}

// planned is one compiled statement: the optimised plan, bound, its
// physical annotation, and what executing and presenting it takes, and
// nothing of what compiling it went through — neither the translated plan
// nor the rewrite's result — so that the plan cache retains no more than a
// hit needs.
type planned struct {
	plan algebra.Op
	// phys is plan's physical annotation (eval.Lower): every decision the
	// executor makes about a node, made once when the plan is admitted to
	// the plan cache, or per statement for a plan that is not cached. A
	// cache hit runs it as it is.
	phys *eval.Plan
	// dataCols is the number of visible data columns; hidden the number of
	// hidden sort-key columns that follow them (see sql.Translated.Hidden).
	// The columns after those are provenance columns, prov[i].width of them
	// from the i-th base relation access, prov[i].relation.
	dataCols int
	hidden   int
	prov     []provGroup
	// pattern is the statement's literal pattern within its family (see
	// sql.Lexed.Shape); set on plans compiled for the plan cache.
	pattern string
	// deps are the relations the statement named with what they were bound
	// to: the plan is valid wherever they still are (see planCache).
	deps []dep
	// frozen is the plan's fingerprint when the plan cache admitted it with
	// the frozen-plan check on, 0 otherwise: a cached plan serves every
	// statement of its shape in every session, and no run may write into it.
	frozen uint64
}

// fingerprint hashes everything of p but its frozen field: the plan tree,
// its physical annotation, the presentation fields, and the view
// definitions and table shapes of its dependencies.
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
// snapshot.
func (sn snapshot) compile(stmt *sql.Stmt, cfg queryConfig) (*planned, error) {
	env := sn.env()
	if err := sql.Analyze(env, stmt); err != nil {
		return nil, err
	}
	tr, err := sql.Translate(env, stmt)
	if err != nil {
		return nil, err
	}
	plan := tr.Plan
	var res *rewrite.Result
	if tr.Provenance {
		strat, err := cfg.strategy.internal()
		if err != nil {
			return nil, err
		}
		res, err = rewrite.Rewrite(plan, strat)
		if err != nil {
			return nil, err
		}
		plan = res.Plan
	}
	if !cfg.noOptimize {
		plan = opt.Optimize(plan)
	}
	// Bind last: the plan cache keeps, fingerprints and runs the bound plan
	// (see algebra.Bind).
	bound, err := algebra.Bind(plan)
	if err != nil {
		return nil, err
	}
	p := &planned{
		plan:     bound,
		dataCols: plan.Schema().Len() - tr.Hidden,
		hidden:   tr.Hidden,
		deps:     sn.depsOf(tr.Relations),
	}
	if res != nil {
		p.dataCols = res.Original.Len() - tr.Hidden
		for _, src := range res.Prov {
			// src.Rel is a slice of the statement's text: cloned, so that
			// a cached plan does not keep the text alive.
			p.prov = append(p.prov, provGroup{relation: strings.Clone(src.Rel), width: len(src.Attrs)})
		}
	}
	return p, nil
}
