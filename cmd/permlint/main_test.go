package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"perm/internal/lint"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from current output")

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

// headerOnlyBaseline is a baseline admitting no allocation.
func headerOnlyBaseline(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "baseline.txt")
	if err := os.WriteFile(path, []byte("# empty\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSeededViolationsFail is the proof that the gate has teeth: every
// analyzer of the suite, run by name over its seeded fixture, makes the
// command exit 1 — hotalloc, whose findings are advisory, through
// -strict-hot against a baseline that admits nothing. An analyzer that
// stops reporting fails here.
func TestSeededViolationsFail(t *testing.T) {
	for _, a := range lint.Analyzers() {
		t.Run(a.Name, func(t *testing.T) {
			args := []string{"-checks", a.Name, fixture(a.Name)}
			if a == lint.HotAlloc {
				args = append([]string{"-strict-hot", "-hot-baseline", headerOnlyBaseline(t)}, args...)
			}
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
	const want = "ctxflow lockcheck lockorder errclass deferclose hotalloc immutcheck purity"
	if got := strings.Join(names, " "); status != 0 || got != want {
		t.Errorf("-list: exit status %d, analyzers %q, want %q", status, got, want)
	}
}

// TestStrictHot drives the baseline round trip over the hotalloc fixture:
// a freshly written baseline is exact, and drift in either direction — an
// allocation the baseline lacks, a baseline line nothing produces — fails,
// reported as elements of the one JSON array under -json.
func TestStrictHot(t *testing.T) {
	tmp := t.TempDir()
	baseline := filepath.Join(tmp, "baseline.txt")
	if status, _, stderr := permlint("-write-hot-baseline", "-hot-baseline", baseline, fixture("hotalloc")); status != 0 {
		t.Fatalf("-write-hot-baseline: exit status %d\n%s", status, stderr)
	}
	if status, stdout, stderr := permlint("-strict-hot", "-hot-baseline", baseline, fixture("hotalloc")); status != 0 || stdout != "" {
		t.Fatalf("-strict-hot on a fresh baseline: exit status %d, want 0 and no output\nstdout:\n%s\nstderr:\n%s", status, stdout, stderr)
	}

	// Drop the first entry (its allocation becomes new) and add one that
	// nothing produces (stale).
	data, err := os.ReadFile(baseline)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	dropped := false
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if !dropped && !strings.HasPrefix(line, "#") {
			dropped = true
			continue
		}
		lines = append(lines, line)
	}
	if !dropped {
		t.Fatalf("the hotalloc fixture produced an empty baseline:\n%s", data)
	}
	lines = append(lines, "hotalloc.go: alloc in hot function removed: make")
	if err := os.WriteFile(baseline, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	status, stdout, stderr := permlint("-json", "-strict-hot", "-hot-baseline", baseline, fixture("hotalloc"))
	if status != 1 || !strings.Contains(stderr, "2 finding(s)") {
		t.Errorf("-json -strict-hot with one new and one stale entry: exit status %d, stderr %q; want 1 and 2 findings", status, stderr)
	}
	abs, err := filepath.Abs(fixture("hotalloc"))
	if err != nil {
		t.Fatal(err)
	}
	got := strings.NewReplacer(abs+"/", "", tmp+"/", "").Replace(stdout)
	const golden = "testdata/strict-hot.json"
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("-json -strict-hot output drifted from %s:\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}

// TestBaselineFlagsNeedHotalloc: selecting analyzers without hotalloc must
// neither rewrite the baseline to its header nor pass -strict-hot vacuously.
func TestBaselineFlagsNeedHotalloc(t *testing.T) {
	baseline := filepath.Join(t.TempDir(), "baseline.txt")
	const content = "# header\nhotalloc.go: alloc in hot function kept: make\n"
	if err := os.WriteFile(baseline, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"-write-hot-baseline", "-strict-hot"} {
		status, _, stderr := permlint("-checks", "lockcheck", mode, "-hot-baseline", baseline, fixture("hotalloc"))
		if status != 2 || !strings.Contains(stderr, "need the hotalloc analyzer") {
			t.Errorf("-checks lockcheck %s: exit status %d, stderr %q; want 2 and a message", mode, status, stderr)
		}
	}
	if data, err := os.ReadFile(baseline); err != nil || string(data) != content {
		t.Errorf("baseline was rewritten: %q (err %v)", data, err)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-checks", "nosuch"},
		{"-graph"}, // not a flag
		{"-strict-hot", "-hot-baseline", filepath.Join(t.TempDir(), "missing.txt"), fixture("hotalloc")},
	} {
		if status, _, stderr := permlint(args...); status != 2 || stderr == "" {
			t.Errorf("permlint %s: exit status %d, stderr %q; want 2 and a message", strings.Join(args, " "), status, stderr)
		}
	}
}
