package plancheck

import (
	"strings"
	"testing"

	"perm/internal/algebra"
	"perm/internal/rewrite"
	"perm/internal/schema"
	"perm/internal/types"
)

// scanR builds a scan of r(a, b) under alias r.
func scanR() *algebra.Scan {
	return algebra.NewScan("r", "r", schema.New("", "a", "b"))
}

// scanS builds a scan of s(c, d) under alias s.
func scanS() *algebra.Scan {
	return algebra.NewScan("s", "s", schema.New("", "c", "d"))
}

// rewrittenR builds the canonical rewritten plan for SELECT PROVENANCE a, b
// FROM r: the data columns followed by the contiguous P(r) block, every
// provenance column passed through from the base scan.
func rewrittenR() (algebra.Op, schema.Schema, []rewrite.ProvSource) {
	scan := scanR()
	prov := schema.ProvSchema("r", scan.Sch, 0)
	plan := algebra.NewProject(scan,
		algebra.KeepAttr(scan.Sch.Attrs[0]),
		algebra.KeepAttr(scan.Sch.Attrs[1]),
		algebra.Col(algebra.AttrRef{Qual: "r", Name: "a"}, prov.Attrs[0].Name),
		algebra.Col(algebra.AttrRef{Qual: "r", Name: "b"}, prov.Attrs[1].Name),
	)
	src := []rewrite.ProvSource{{Rel: "r", Disamb: 0, Base: scan.Sch, Attrs: prov.Attrs}}
	return plan, scan.Sch, src
}

type wantDiag struct {
	check    string
	contains string
	advisory bool
}

func TestChecks(t *testing.T) {
	cases := []struct {
		name string
		sp   StagePlan
		want []wantDiag
	}{
		// --- schema ---
		{
			name: "schema/clean select",
			sp: StagePlan{Stage: StageTranslate, Plan: &algebra.Select{
				Child: scanR(),
				Cond:  algebra.Cmp{Op: types.CmpEq, L: algebra.AttrRef{Qual: "r", Name: "a"}, R: algebra.IntConst(1)},
			}},
		},
		{
			name: "schema/unresolved reference",
			sp: StagePlan{Stage: StageTranslate, Plan: &algebra.Select{
				Child: scanR(),
				Cond:  algebra.Cmp{Op: types.CmpEq, L: algebra.Attr("nosuch"), R: algebra.IntConst(1)},
			}},
			want: []wantDiag{
				{check: "schema", contains: "resolves against no input"},
				{check: "decorrelate", contains: "free attribute reference"},
			},
		},
		{
			name: "schema/ambiguous reference",
			sp: StagePlan{Stage: StageTranslate, Plan: &algebra.Select{
				Child: &algebra.Cross{L: scanR(), R: algebra.NewScan("r", "r2", schema.New("", "a", "b"))},
				Cond:  algebra.Cmp{Op: types.CmpEq, L: algebra.Attr("a"), R: algebra.IntConst(1)},
			}},
			want: []wantDiag{{check: "schema", contains: "ambiguous attribute reference a in input"}},
		},
		{
			// The sublink's b is not s's, and the enclosing r × r2 has two.
			name: "schema/ambiguous correlated reference",
			sp: StagePlan{Stage: StageTranslate, Plan: &algebra.Select{
				Child: &algebra.Cross{L: scanR(), R: algebra.NewScan("r", "r2", schema.New("", "a", "b"))},
				Cond: algebra.Sublink{Kind: algebra.ExistsSublink, Query: &algebra.Select{
					Child: scanS(),
					Cond:  algebra.Cmp{Op: types.CmpEq, L: algebra.Attr("c"), R: algebra.Attr("b")},
				}},
			}},
			want: []wantDiag{{check: "schema", contains: "ambiguous correlated reference b in enclosing scope"}},
		},
		{
			name: "schema/setop arity mismatch",
			sp: StagePlan{Stage: StageTranslate, Plan: &algebra.SetOp{
				Kind: algebra.Union,
				L:    scanR(),
				R:    algebra.NewProject(scanS(), algebra.KeepAttr(schema.Attr{Qual: "s", Name: "c"})),
			}},
			want: []wantDiag{{check: "schema", contains: "disagree on arity"}},
		},
		{
			name: "schema/literal row width",
			sp: StagePlan{Stage: StageTranslate, Plan: &algebra.Values{
				Sch:  schema.New("", "x", "y"),
				Rows: []algebra.Row{{algebra.IntConst(1)}},
			}},
			want: []wantDiag{{check: "schema", contains: "literal row 0 has 1 expressions"}},
		},
		{
			name: "schema/empty projection",
			sp:   StagePlan{Stage: StageTranslate, Plan: algebra.NewProject(scanR())},
			want: []wantDiag{{check: "schema", contains: "no output columns"}},
		},

		// --- provblock ---
		{
			name: "provblock/clean rewrite",
			sp: func() StagePlan {
				plan, orig, prov := rewrittenR()
				return StagePlan{Stage: RewriteStage("Gen"), Plan: plan, Rewritten: true, Original: orig, Prov: prov}
			}(),
		},
		{
			name: "provblock/missing provenance column",
			sp: func() StagePlan {
				plan, orig, prov := rewrittenR()
				pr := plan.(*algebra.Project)
				pr.Cols = pr.Cols[:3] // drop prov_r_b
				return StagePlan{Stage: RewriteStage("Gen"), Plan: pr, Rewritten: true, Original: orig, Prov: prov}
			}(),
			want: []wantDiag{{check: "provblock", contains: "has 3 attributes, want 2 data + 2 provenance"}},
		},
		{
			name: "provblock/misnamed provenance attribute",
			sp: func() StagePlan {
				plan, orig, prov := rewrittenR()
				prov[0].Attrs = append([]schema.Attr(nil), prov[0].Attrs...)
				prov[0].Attrs[0].Name = "prov_x_a"
				return StagePlan{Stage: RewriteStage("Gen"), Plan: plan, Rewritten: true, Original: orig, Prov: prov}
			}(),
			want: []wantDiag{{check: "provblock", contains: `should be named "prov_r_a" per P(R)`}},
		},
		{
			name: "provblock/computed provenance column",
			sp: func() StagePlan {
				plan, orig, prov := rewrittenR()
				pr := plan.(*algebra.Project)
				pr.Cols[2].E = algebra.IntConst(7)
				return StagePlan{Stage: RewriteStage("Gen"), Plan: pr, Rewritten: true, Original: orig, Prov: prov}
			}(),
			want: []wantDiag{{check: "provblock", contains: "non-NULL constant"}},
		},
		{
			name: "provblock/wrong base relation",
			sp: func() StagePlan {
				scan := scanS()
				prov := schema.ProvSchema("r", schema.New("r", "c", "d"), 0)
				plan := algebra.NewProject(scan,
					algebra.KeepAttr(scan.Sch.Attrs[0]),
					algebra.KeepAttr(scan.Sch.Attrs[1]),
					algebra.Col(algebra.AttrRef{Qual: "s", Name: "c"}, prov.Attrs[0].Name),
					algebra.Col(algebra.AttrRef{Qual: "s", Name: "d"}, prov.Attrs[1].Name),
				)
				src := []rewrite.ProvSource{{Rel: "r", Disamb: 0, Base: schema.New("r", "c", "d"), Attrs: prov.Attrs}}
				return StagePlan{Stage: RewriteStage("Gen"), Plan: plan, Rewritten: true, Original: scan.Sch, Prov: src}
			}(),
			want: []wantDiag{{check: "provblock", contains: `traces to a scan of "s", want base relation "r"`}},
		},
		{
			name: "provblock/flows through aggregation",
			sp: func() StagePlan {
				plan, orig, prov := rewrittenR()
				agg := &algebra.Aggregate{
					Child: plan.(*algebra.Project).Child,
					Group: []algebra.GroupExpr{
						{E: algebra.AttrRef{Qual: "r", Name: "a"}, As: "a"},
						{E: algebra.AttrRef{Qual: "r", Name: "b"}, As: "b"},
					},
					Aggs: []algebra.AggExpr{},
				}
				pr := plan.(*algebra.Project)
				pr.Child = agg
				pr.Cols[0] = algebra.Col(algebra.Attr("a"), "a")
				pr.Cols[1] = algebra.Col(algebra.Attr("b"), "b")
				pr.Cols[2].E = algebra.Attr("a")
				pr.Cols[3].E = algebra.Attr("b")
				return StagePlan{Stage: RewriteStage("Gen"), Plan: pr, Rewritten: true, Original: orig, Prov: prov}
			}(),
			want: []wantDiag{{check: "provblock", contains: "flows through an aggregation"}},
		},

		// --- decorrelate ---
		{
			name: "decorrelate/nested keeps input correlations",
			sp: func() StagePlan {
				free := &algebra.Select{
					Child: scanR(),
					Cond:  algebra.Cmp{Op: types.CmpEq, L: algebra.AttrRef{Qual: "s", Name: "c"}, R: algebra.AttrRef{Qual: "r", Name: "a"}},
				}
				return StagePlan{Stage: RuleStage("R3/select"), Plan: free, Nested: true, Input: free}
			}(),
		},
		{
			name: "decorrelate/rule introduces new correlation",
			sp: StagePlan{
				Stage: RuleStage("R1/scan"),
				Plan: &algebra.Select{
					Child: scanR(),
					Cond:  algebra.Cmp{Op: types.CmpEq, L: algebra.AttrRef{Qual: "s", Name: "c"}, R: algebra.AttrRef{Qual: "r", Name: "a"}},
				},
				Nested: true,
				Input:  scanR(),
			},
			want: []wantDiag{{check: "decorrelate", contains: "rewrite introduced the free reference s.c"}},
		},

		// --- hygiene ---
		{
			name: "hygiene/clean hidden block",
			sp: func() StagePlan {
				scan := scanR()
				plan := algebra.NewProject(scan,
					algebra.KeepAttr(scan.Sch.Attrs[0]),
					algebra.Col(algebra.AttrRef{Qual: "r", Name: "b"}, "ord#1"),
				)
				return StagePlan{Stage: StageTranslate, Plan: plan, Hidden: 1}
			}(),
		},
		{
			name: "hygiene/negative offset",
			sp:   StagePlan{Stage: StageTranslate, Plan: &algebra.Limit{Child: scanR(), N: 1, Offset: -2}},
			want: []wantDiag{{check: "hygiene", contains: "negative OFFSET -2"}},
		},
		{
			name: "hygiene/dangling scan alias",
			sp:   StagePlan{Stage: StageTranslate, Plan: &algebra.Scan{Name: "r", Sch: schema.New("r", "a", "b")}},
			want: []wantDiag{
				{check: "hygiene", contains: "carries no alias"},
				{check: "hygiene", contains: "not qualified by the scan alias"},
			},
		},
		{
			name: "hygiene/duplicate grouping names",
			sp: StagePlan{Stage: StageTranslate, Plan: &algebra.Aggregate{
				Child: scanR(),
				Group: []algebra.GroupExpr{
					{E: algebra.AttrRef{Qual: "r", Name: "a"}, As: "g"},
					{E: algebra.AttrRef{Qual: "r", Name: "b"}, As: "g"},
				},
			}},
			want: []wantDiag{{check: "hygiene", contains: `duplicate grouping output name "g"`}},
		},
		{
			name: "hygiene/hidden key leaks into visible prefix",
			sp: func() StagePlan {
				scan := scanR()
				plan := algebra.NewProject(scan,
					algebra.Col(algebra.AttrRef{Qual: "r", Name: "b"}, "ord#1"),
					algebra.KeepAttr(scan.Sch.Attrs[0]),
				)
				return StagePlan{Stage: StageTranslate, Plan: plan, Hidden: 1}
			}(),
			want: []wantDiag{
				{check: "hygiene", contains: "leaks into the visible output"},
				{check: "hygiene", contains: "sits in the hidden sort-key block but is not a generated key"},
			},
		},

		// --- cartesian (advisory) ---
		{
			name: "cartesian/cross survives optimization",
			sp:   StagePlan{Stage: StageOptimize, Plan: &algebra.Cross{L: scanR(), R: scanS()}},
			want: []wantDiag{{check: "cartesian", contains: "cross product survives optimization", advisory: true}},
		},
		{
			name: "cartesian/silent outside optimize stage",
			sp:   StagePlan{Stage: StageTranslate, Plan: &algebra.Cross{L: scanR(), R: scanS()}},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			diags := Verify(tc.sp)
			for _, w := range tc.want {
				if !hasDiag(diags, w) {
					t.Errorf("missing %s finding containing %q; got %v", w.check, w.contains, diags)
				}
			}
			if len(tc.want) == 0 {
				for _, d := range diags {
					t.Errorf("unexpected finding: %s", d)
				}
			}
			for _, d := range diags {
				if d.Stage != tc.sp.Stage {
					t.Errorf("finding carries stage %q, want %q", d.Stage, tc.sp.Stage)
				}
			}
		})
	}
}

func hasDiag(diags []Diagnostic, w wantDiag) bool {
	for _, d := range diags {
		if d.Check == w.check && strings.Contains(d.Message, w.contains) && d.Advisory == w.advisory {
			return true
		}
	}
	return false
}

func TestVerifyNilPlan(t *testing.T) {
	if diags := Verify(StagePlan{Stage: StageTranslate}); diags != nil {
		t.Fatalf("nil plan produced findings: %v", diags)
	}
}

func TestHasErrors(t *testing.T) {
	adv := []Diagnostic{{Check: "cartesian", Advisory: true}}
	if HasErrors(adv) {
		t.Fatal("advisory-only findings must not count as errors")
	}
	if !HasErrors(append(adv, Diagnostic{Check: "schema"})) {
		t.Fatal("non-advisory finding must count as an error")
	}
}

func TestCheckByName(t *testing.T) {
	for _, c := range Checks() {
		got, ok := CheckByName(c.Name)
		if !ok || got != c {
			t.Fatalf("CheckByName(%q) = %v, %v", c.Name, got, ok)
		}
	}
	if _, ok := CheckByName("nosuch"); ok {
		t.Fatal("CheckByName accepted an unknown name")
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Check: "schema", Stage: StageTranslate, Path: "Select/0:Scan(r)", Message: "boom"}
	if got, want := d.String(), "translate: schema at Select/0:Scan(r): boom"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	d.Advisory = true
	if !strings.Contains(d.String(), "[advisory]") {
		t.Fatalf("advisory diagnostic not marked: %q", d.String())
	}
}
