// Command plancheck runs the staged algebra-IR verifier
// (internal/plancheck) over SQL files without executing them: every file
// is compiled through translate → rewrite → optimize and each stage's
// plan is checked against the structural invariants. It is the CI gate
// that keeps the fuzz corpus plancheck-clean under every strategy, and a
// debugging tool for inspecting per-stage verdicts of a single query.
//
//	go run ./cmd/plancheck -corpus internal/fuzz/testdata/fuzz-corpus
//	go run ./cmd/plancheck -v -strategy Gen query.sql
//	go run ./cmd/plancheck -corpus ... -inject   # self-test: must fail
//
// Files use the fuzz corpus format: "--" comment lines are stripped, and
// files declaring "-- expect-error:" are skipped (they do not compile).
// Each file's plain form is verified once, and its SELECT PROVENANCE form
// under every requested strategy; strategies that reject the query at the
// rewrite stage ("rewrite: " errors) count as not applicable, not as
// failures.
//
// Exit status: 0 when every stage of every configuration verified clean
// (advisory findings do not fail the gate; -advisory prints them), 1 when
// any non-advisory finding or unexpected compile error surfaced, 2 on
// usage or I/O errors.
//
// -inject is the gate's self-test: after translating each file, the plan
// is deliberately corrupted (a projection referencing a column no scope
// defines) before verification. The run must then report findings and
// exit 1 — main_test.go asserts the failure, proving the gate can fail.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"perm"
	"perm/internal/algebra"
	"perm/internal/fuzz"
	"perm/internal/plancheck"
	"perm/internal/sql"
)

var strategyNames = map[string]perm.Strategy{
	"Gen": perm.Gen, "Left": perm.Left, "Move": perm.Move,
	"Unn": perm.Unn, "UnnX": perm.UnnX, "Auto": perm.Auto,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: verdicts go to stdout, usage and I/O errors to
// stderr, and the result is the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("plancheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	corpus := fs.String("corpus", "", "directory of corpus .sql files to sweep (positional args name single files)")
	strategy := fs.String("strategy", "all", "provenance strategy to verify under: Gen, Left, Move, Unn, UnnX, Auto or all")
	seed := fs.Int64("seed", 1, "seed for the base catalog the files are compiled against")
	advisory := fs.Bool("advisory", false, "print advisory findings (they never affect the exit status)")
	verbose := fs.Bool("v", false, "print a per-stage verdict line for every configuration")
	inject := fs.Bool("inject", false, "self-test: corrupt every translated plan so the gate provably fails")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	var strategies []perm.Strategy
	if *strategy == "all" {
		strategies = []perm.Strategy{perm.Gen, perm.Left, perm.Move, perm.Unn, perm.UnnX, perm.Auto}
	} else {
		s, ok := strategyNames[*strategy]
		if !ok {
			fmt.Fprintf(stderr, "plancheck: unknown strategy %q\n", *strategy)
			return 2
		}
		strategies = []perm.Strategy{s}
	}

	files := fs.Args()
	if *corpus != "" {
		matches, err := filepath.Glob(filepath.Join(*corpus, "*.sql"))
		if err != nil || len(matches) == 0 {
			fmt.Fprintf(stderr, "plancheck: no .sql files under %s\n", *corpus)
			return 2
		}
		sort.Strings(matches)
		files = append(files, matches...)
	}
	if len(files) == 0 {
		fmt.Fprintln(stderr, "plancheck: nothing to check (pass -corpus or file arguments)")
		return 2
	}

	db := fuzz.NewDB(*seed)
	r := &runner{db: db, out: stdout, strategies: strategies, advisory: *advisory, verbose: *verbose, inject: *inject}
	for _, file := range files {
		if err := r.file(file); err != nil {
			fmt.Fprintf(stderr, "plancheck: %s: %v\n", file, err)
			return 2
		}
	}
	fmt.Fprintf(stdout, "plancheck: %d files, %d configurations verified, %d skipped: %d findings (%d advisory)\n",
		len(files), r.configs, r.skipped, r.bad+r.adv, r.adv)
	if r.bad > 0 {
		return 1
	}
	return 0
}

type runner struct {
	db         *perm.DB
	out        io.Writer
	strategies []perm.Strategy
	advisory   bool
	verbose    bool
	inject     bool

	configs int // (file, strategy) configurations verified
	skipped int // expect-error files and inapplicable strategies
	bad     int // non-advisory findings
	adv     int // advisory findings
}

// file verifies one corpus file under every configuration. Only I/O and
// format problems return an error; findings are counted on the runner.
func (r *runner) file(path string) error {
	query, skip, err := readCorpusFile(path)
	if err != nil {
		return err
	}
	name := filepath.Base(path)
	if skip {
		r.skipped++
		if r.verbose {
			fmt.Fprintf(r.out, "%s: skip (expect-error file)\n", name)
		}
		return nil
	}
	if r.inject {
		return r.injectFile(name, query)
	}

	// Plain form: translate and optimize stages only.
	if err := r.verify(name, "plain", query); err != nil {
		return err
	}
	if !strings.HasPrefix(strings.ToUpper(query), "SELECT") {
		return nil
	}
	provQ := "SELECT PROVENANCE" + query[len("SELECT"):]
	for _, s := range r.strategies {
		if err := r.verify(name, string(s), provQ, perm.WithStrategy(s)); err != nil {
			return err
		}
	}
	return nil
}

func (r *runner) verify(name, config, query string, opts ...perm.Option) error {
	stages, err := r.db.VerifyPlan(query, opts...)
	if err != nil {
		if strings.HasPrefix(err.Error(), "rewrite: ") {
			r.skipped++
			if r.verbose {
				fmt.Fprintf(r.out, "%s [%s]: n/a (%v)\n", name, config, err)
			}
			return nil
		}
		// The corpus compiles by construction; anything else is a defect.
		r.bad++
		fmt.Fprintf(r.out, "%s [%s]: compile failed: %v\n", name, config, err)
		return nil
	}
	r.configs++
	for _, st := range stages {
		clean := true
		for _, f := range st.Findings {
			if f.Advisory {
				r.adv++
				if r.advisory {
					fmt.Fprintf(r.out, "%s [%s]: %s\n", name, config, f)
				}
				continue
			}
			clean = false
			r.bad++
			fmt.Fprintf(r.out, "%s [%s]: %s\n", name, config, f)
		}
		if r.verbose {
			verdict := "ok"
			if !clean {
				verdict = "FAIL"
			}
			fmt.Fprintf(r.out, "%s [%s] %s: %s\n", name, config, st.Stage, verdict)
		}
	}
	return nil
}

// injectFile translates the file and verifies a deliberately corrupted
// plan: a projection referencing a column no scope defines. The verifier
// must report it — a clean verdict here means the gate cannot fail.
func (r *runner) injectFile(name, query string) error {
	tr, err := sql.CompileEnv(sql.Env{Catalog: r.db.Catalog()}, query)
	if err != nil {
		return fmt.Errorf("compile for injection: %w", err)
	}
	broken := algebra.NewProject(tr.Plan, algebra.Col(algebra.Attr("plancheck#injected"), "injected"))
	diags := plancheck.Verify(plancheck.StagePlan{Stage: plancheck.StageTranslate, Plan: broken, Hidden: tr.Hidden})
	r.configs++
	found := false
	for _, d := range diags {
		if !d.Advisory {
			found = true
			r.bad++
			fmt.Fprintf(r.out, "%s [inject]: %s\n", name, d)
		}
	}
	if !found {
		fmt.Fprintf(r.out, "%s [inject]: SELF-TEST BROKEN: the corrupted plan verified clean\n", name)
	}
	return nil
}

// readCorpusFile strips corpus comments and reports whether the file is
// an expect-error case (which does not compile and cannot be verified).
func readCorpusFile(path string) (query string, skip bool, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return "", false, err
	}
	var sqlLines []string
	for _, line := range strings.Split(string(raw), "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "-- expect-error:") {
			return "", true, nil
		}
		if strings.HasPrefix(trimmed, "--") || trimmed == "" {
			continue
		}
		sqlLines = append(sqlLines, trimmed)
	}
	if len(sqlLines) == 0 {
		return "", false, fmt.Errorf("no SQL payload")
	}
	return strings.Join(sqlLines, " "), false, nil
}
