package plancheck

import "testing"

func TestVerifyNilPlan(t *testing.T) {
	if diags := Verify(StagePlan{Stage: StageTranslate}); diags != nil {
		t.Fatalf("nil plan produced findings: %v", diags)
	}
}

func TestHasErrors(t *testing.T) {
	if HasErrors(nil) {
		t.Fatal("no findings must not count as errors")
	}
	if !HasErrors([]Diagnostic{{Check: "schema"}}) {
		t.Fatal("a finding must count as an error")
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Check: "schema", Stage: StageTranslate, Path: "Select/0:Scan(r)", Message: "boom"}
	if got, want := d.String(), "translate: schema at Select/0:Scan(r): boom"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}
