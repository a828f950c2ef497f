// Command permlint runs the perm invariant checkers over Go packages.
//
// Usage:
//
//	go run ./cmd/permlint ./...
//
// By default every analyzer runs and any non-advisory finding makes the
// process exit 1. Advisory findings — the hotalloc allocation inventory —
// never affect the exit status and are printed only when hotalloc is
// explicitly selected with -checks or when -inventory asks for them, so the
// default run reports failures alone. -strict-hot compares the hotalloc
// inventory with a checked-in baseline and fails in both directions: on an
// allocation the baseline does not admit, and on a baseline line the
// inventory no longer produces (the burn-down file stays exact). -json emits
// the findings, strict-hot failures included, as one JSON array instead of
// text.
//
// Exit status: 0 clean, 1 findings, 2 usage or load errors.
package main

import (
	"errors"
	"flag"
	"fmt"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	"perm/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, writes findings to stdout and
// everything else to stderr, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("permlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		checks      = fs.String("checks", "", "comma-separated analyzer names to run (default: all)")
		listFlag    = fs.Bool("list", false, "list the available analyzers and exit")
		strictHot   = fs.Bool("strict-hot", false, "fail when the hotalloc inventory and the -hot-baseline file differ (new or stale entries)")
		inventory   = fs.Bool("inventory", false, "print only advisory findings (the hotalloc inventory) and exit 0")
		jsonFlag    = fs.Bool("json", false, "emit findings as a JSON array (file/line/col/analyzer/message/severity)")
		verbose     = fs.Bool("v", false, "report load and per-analyzer wall time on stderr")
		hotBaseline = fs.String("hot-baseline", "internal/lint/testdata/hotalloc-baseline.txt", "baseline the -strict-hot inventory diff compares against")
		writeHot    = fs.Bool("write-hot-baseline", false, "rewrite the -hot-baseline file from the current inventory and exit")
		dir         = fs.String("C", ".", "change to this directory before loading packages")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: permlint [flags] [packages]\n\n")
		fmt.Fprintf(stderr, "Runs the perm invariant checkers over the named packages (default ./...).\n\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "permlint: %v\n", err)
		return 2
	}

	if *listFlag {
		for _, a := range lint.Analyzers() {
			doc, _, _ := strings.Cut(a.Doc, "\n")
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, doc)
		}
		return 0
	}

	analyzers := lint.Analyzers()
	if *checks != "" {
		analyzers = analyzers[:0:0]
		for _, name := range strings.Split(*checks, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			a, ok := lint.AnalyzerByName(name)
			if !ok {
				return fail(fmt.Errorf("unknown analyzer %q (try -list)", name))
			}
			analyzers = append(analyzers, a)
		}
	}
	if (*strictHot || *writeHot) && !slices.Contains(analyzers, lint.HotAlloc) {
		// Without the inventory the baseline would be rewritten empty, or
		// compared against nothing.
		return fail(fmt.Errorf("-strict-hot and -write-hot-baseline need the hotalloc analyzer, which -checks %s leaves out", *checks))
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loadStart := time.Now()
	pkgs, err := lint.NewLoader().Load(*dir, patterns...)
	if err != nil {
		return fail(err)
	}
	loadTime := time.Since(loadStart)

	diags, timings, err := lint.RunAnalyzersTimed(pkgs, analyzers)
	if err != nil {
		return fail(err)
	}
	if *verbose {
		fmt.Fprintf(stderr, "permlint: load %v (%d packages)\n", loadTime.Round(time.Millisecond), len(pkgs))
		var analyze time.Duration
		for _, tm := range timings {
			analyze += tm.Duration
			fmt.Fprintf(stderr, "permlint: %-12s %v\n", tm.Name, tm.Duration.Round(time.Millisecond))
		}
		fmt.Fprintf(stderr, "permlint: analyze %v total\n", analyze.Round(time.Millisecond))
	}

	if *writeHot {
		if err := writeBaseline(*hotBaseline, diags); err != nil {
			return fail(err)
		}
		return 0
	}

	// Advisory findings are inventories, not failures: shown when asked
	// for (-inventory) or when their analyzer was named in -checks, kept
	// out of the default run's output.
	printInfo := *inventory || *checks != ""
	failing := 0
	var shown []lint.Diagnostic
	for _, d := range diags {
		if !d.Info {
			failing++
			if !*inventory {
				shown = append(shown, d)
			}
			continue
		}
		if printInfo {
			shown = append(shown, d)
		}
	}
	if *strictHot && !*inventory {
		drift, err := diffBaseline(*hotBaseline, diags)
		if err != nil {
			return fail(err)
		}
		failing += len(drift)
		shown = append(shown, drift...)
	}
	if *jsonFlag {
		if err := lint.WriteJSON(stdout, shown); err != nil {
			return fail(err)
		}
	} else {
		for _, d := range shown {
			fmt.Fprintln(stdout, d)
		}
	}
	if failing == 0 || *inventory {
		return 0
	}
	fmt.Fprintf(stderr, "permlint: %d finding(s)\n", failing)
	return 1
}

// baselineKey normalizes a hotalloc finding for baseline comparison: the
// file's base name plus the message, deliberately dropping line numbers so
// unrelated edits moving a hot function do not churn the baseline.
func baselineKey(d lint.Diagnostic) string {
	return filepath.Base(d.Pos.Filename) + ": " + d.Message
}

// hotInventory selects the findings the baseline records.
func hotInventory(diags []lint.Diagnostic) []lint.Diagnostic {
	var out []lint.Diagnostic
	for _, d := range diags {
		if d.Info && d.Analyzer == lint.HotAlloc.Name {
			out = append(out, d)
		}
	}
	return out
}

// writeBaseline records the current hotalloc inventory, one normalized
// finding per line, sorted, duplicates preserved (two appends in one
// function are two entries).
func writeBaseline(path string, diags []lint.Diagnostic) error {
	var keys []string
	for _, d := range hotInventory(diags) {
		keys = append(keys, baselineKey(d))
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("# hotalloc baseline: the accepted per-row allocation inventory in perm:hot functions.\n")
	b.WriteString("# permlint -strict-hot fails on findings absent from this file.\n")
	b.WriteString("# Regenerate with: go run ./cmd/permlint -write-hot-baseline ./...\n")
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('\n')
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// diffBaseline compares the hotalloc inventory with the baseline multiset
// and returns each difference as a failing finding: an allocation the
// baseline does not admit (brand new, or one more occurrence than it
// lists), located at the allocation, and a baseline line the inventory no
// longer produces, located at that line of the baseline file.
func diffBaseline(path string, diags []lint.Diagnostic) ([]lint.Diagnostic, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading -hot-baseline (generate with -write-hot-baseline): %w", err)
	}
	unmatched := map[string][]int{} // key -> baseline line numbers not yet matched
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		unmatched[line] = append(unmatched[line], i+1)
	}
	var drift []lint.Diagnostic
	for _, d := range hotInventory(diags) {
		k := baselineKey(d)
		if lines := unmatched[k]; len(lines) > 0 {
			unmatched[k] = lines[1:]
			continue
		}
		d.Info = false
		d.Message += fmt.Sprintf(" [not in %s: new hot-path allocation]", filepath.Base(path))
		drift = append(drift, d)
	}
	var stale []lint.Diagnostic
	for k, lines := range unmatched {
		for _, n := range lines {
			stale = append(stale, lint.Diagnostic{
				Analyzer: lint.HotAlloc.Name,
				Pos:      token.Position{Filename: path, Line: n},
				Message:  fmt.Sprintf("baseline entry %q is no longer in the inventory (stale — regenerate with -write-hot-baseline)", k),
			})
		}
	}
	sort.Slice(stale, func(i, j int) bool { return stale[i].Pos.Line < stale[j].Pos.Line })
	return append(drift, stale...), nil
}
