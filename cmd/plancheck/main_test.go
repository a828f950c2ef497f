package main

import (
	"bytes"
	"strings"
	"testing"
)

const corpus = "../../internal/fuzz/testdata/fuzz-corpus"

// TestExitStatus pins the gate's contract: the checked-in corpus verifies
// clean (0), a corrupted plan fails it (1, the -inject self-test), and
// usage errors are 2.
func TestExitStatus(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		want   int
		stdout string // substring of stdout
		stderr string // substring of stderr
	}{
		{"corpus clean", []string{"-corpus", corpus}, 0, " configurations verified", ""},
		{"injected violation fails", []string{"-corpus", corpus, "-inject"}, 1, "plancheck#injected", ""},
		{"nothing to check", nil, 2, "", "nothing to check"},
		{"unknown strategy", []string{"-strategy", "Sideways", "-corpus", corpus}, 2, "", "unknown strategy"},
		{"empty corpus", []string{"-corpus", t.TempDir()}, 2, "", "no .sql files"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tc.args, &stdout, &stderr); got != tc.want {
				t.Errorf("exit status %d, want %d\nstdout:\n%s\nstderr:\n%s", got, tc.want, &stdout, &stderr)
			}
			if !strings.Contains(stdout.String(), tc.stdout) {
				t.Errorf("stdout lacks %q:\n%s", tc.stdout, &stdout)
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr lacks %q:\n%s", tc.stderr, &stderr)
			}
			if strings.Contains(stdout.String(), "SELF-TEST BROKEN") {
				t.Errorf("a corrupted plan verified clean:\n%s", &stdout)
			}
		})
	}
}
