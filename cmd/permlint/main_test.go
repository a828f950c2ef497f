package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"perm/internal/lint"
)

// fixture is the analyzer's seeded-violation package (the // want fixtures
// of internal/lint).
func fixture(analyzer string) string {
	return "../../internal/lint/testdata/src/" + analyzer
}

// permlint runs the command in-process and returns its exit status and
// output streams.
func permlint(args ...string) (status int, stdout, stderr string) {
	var out, errs bytes.Buffer
	status = run(args, &out, &errs)
	return status, out.String(), errs.String()
}

// TestSeededViolationsFail is the proof that the gate has teeth: every
// analyzer of the suite, run by name over its seeded fixture, makes the
// command exit 1. An analyzer that stops reporting fails here.
func TestSeededViolationsFail(t *testing.T) {
	for _, a := range lint.Analyzers() {
		t.Run(a.Name, func(t *testing.T) {
			args := []string{"-checks", a.Name, fixture(a.Name)}
			status, stdout, stderr := permlint(args...)
			if status != 1 {
				t.Errorf("permlint %s: exit status %d, want 1\nstdout:\n%s\nstderr:\n%s",
					strings.Join(args, " "), status, stdout, stderr)
			}
			if !strings.Contains(stdout, ": "+a.Name+": ") {
				t.Errorf("no %s finding on stdout:\n%s", a.Name, stdout)
			}
		})
	}
}

// TestCleanPackageExitsZero: the same command over a package without
// violations exits 0 and prints nothing.
func TestCleanPackageExitsZero(t *testing.T) {
	status, stdout, stderr := permlint(fixture("ctxflowmain"))
	if status != 0 || stdout != "" {
		t.Errorf("exit status %d, want 0 and no output\nstdout:\n%s\nstderr:\n%s", status, stdout, stderr)
	}
}

func TestListNamesTheSuite(t *testing.T) {
	status, stdout, _ := permlint("-list")
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(stdout), "\n") {
		name, _, _ := strings.Cut(line, " ")
		names = append(names, name)
	}
	const want = "ctxflow errclass deferclose"
	if got := strings.Join(names, " "); status != 0 || got != want {
		t.Errorf("-list: exit status %d, analyzers %q, want %q", status, got, want)
	}
}

// TestJSONFindings: -json prints the findings as one JSON array, every
// element an error of the selected analyzer, and still exits 1.
func TestJSONFindings(t *testing.T) {
	status, stdout, stderr := permlint("-json", "-checks", "ctxflow", fixture("ctxflow"))
	if status != 1 {
		t.Fatalf("exit status %d, want 1\nstderr:\n%s", status, stderr)
	}
	var diags []struct{ Analyzer, Severity string }
	if err := json.Unmarshal([]byte(stdout), &diags); err != nil {
		t.Fatalf("stdout is not a JSON array: %v\n%s", err, stdout)
	}
	if len(diags) == 0 {
		t.Fatal("no findings in the JSON array")
	}
	for _, d := range diags {
		if d.Analyzer != "ctxflow" || d.Severity != "error" {
			t.Errorf("finding %+v, want analyzer ctxflow and severity error", d)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-checks", "nosuch"},
		{"-graph"}, // not a flag
	} {
		if status, _, stderr := permlint(args...); status != 2 || stderr == "" {
			t.Errorf("permlint %s: exit status %d, stderr %q; want 2 and a message", strings.Join(args, " "), status, stderr)
		}
	}
}
