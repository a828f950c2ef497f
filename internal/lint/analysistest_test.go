package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// The fixture tests share one loader so the standard-library closure is
// type-checked once per test binary.
var (
	testLoaderOnce sync.Once
	testLoader     *Loader
)

func sharedLoader() *Loader {
	testLoaderOnce.Do(func() { testLoader = NewLoader() })
	return testLoader
}

// wantRE matches the expectation comments of a fixture file:
//
//	x = y // want "unguarded access" "second finding"
//
// Each quoted string is a regexp that must match one diagnostic reported on
// that line; lines without a want comment must produce no diagnostics.
// This is the golang.org/x/tools/go/analysis/analysistest contract, so the
// fixtures survive a migration to the real framework.
var wantRE = regexp.MustCompile(`//\s*want\s+(.*)$`)

// Each want argument is either a Go-quoted string or a backquoted raw
// string, matching analysistest's accepted forms.
var wantArgRE = regexp.MustCompile("`([^`]*)`" + `|"((?:[^"\\]|\\.)*)"`)

// RunFixture loads the fixture package in dir, runs the analyzer over it,
// and asserts the diagnostics match the // want comments exactly.
func RunFixture(t *testing.T, a *Analyzer, dir string) {
	t.Helper()
	pkg, err := sharedLoader().LoadDir(dir)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	var diags []Diagnostic
	pass := &Pass{
		Analyzer: a,
		Pkg:      pkg,
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		Types:    pkg.Types,
		Info:     pkg.Info,
		diags:    &diags,
		ignores:  buildIgnores(pkg),
	}
	if err := a.Run(pass); err != nil {
		t.Fatalf("%s: %v", a.Name, err)
	}

	type key struct {
		file string
		line int
	}
	wants := map[key][]*regexp.Regexp{}
	for _, f := range pkg.Files {
		fileTok := pkg.Fset.File(f.Pos())
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				k := key{file: fileTok.Name(), line: pos.Line}
				for _, arg := range wantArgRE.FindAllStringSubmatch(m[1], -1) {
					pat := arg[1]
					if pat == "" {
						pat = arg[2]
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, pat, err)
					}
					wants[k] = append(wants[k], re)
				}
			}
		}
	}

	matched := map[key][]bool{}
	for k, res := range wants {
		matched[k] = make([]bool, len(res))
	}
	for _, d := range diags {
		k := key{file: d.Pos.Filename, line: d.Pos.Line}
		res := wants[k]
		found := false
		for i, re := range res {
			if !matched[k][i] && re.MatchString(d.Message) {
				matched[k][i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic at %s: %s", d.Pos, d.Message)
		}
	}
	for k, res := range wants {
		for i, re := range res {
			if !matched[k][i] {
				t.Errorf("%s:%d: no diagnostic matching %q (want one from %s)", k.file, k.line, re, a.Name)
			}
		}
	}
}

// fixturePath composes the conventional fixture directory.
func fixturePath(analyzer string) string {
	return fmt.Sprintf("testdata/src/%s", analyzer)
}

// TestEveryAnalyzerHasSeededFixture: each analyzer of the suite has a
// fixture package named after it that seeds at least one violation (a
// // want line). cmd/permlint's TestSeededViolationsFail runs the command
// over these and expects exit 1, so an analyzer cannot join the suite
// without a proof that it can fail the gate.
func TestEveryAnalyzerHasSeededFixture(t *testing.T) {
	for _, a := range Analyzers() {
		files, err := filepath.Glob(filepath.Join(fixturePath(a.Name), "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		wants := 0
		for _, file := range files {
			data, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			for _, line := range strings.Split(string(data), "\n") {
				if wantRE.MatchString(line) {
					wants++
				}
			}
		}
		if wants == 0 {
			t.Errorf("analyzer %s has no // want in %s: nothing shows it can report", a.Name, fixturePath(a.Name))
		}
	}
}
