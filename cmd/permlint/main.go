// Command permlint runs the perm invariant checkers over Go packages.
//
// Usage:
//
//	go run ./cmd/permlint ./...
//
// By default every analyzer runs; -checks selects some of them. Any finding
// makes the process exit 1. -json emits the findings as one JSON array
// instead of text.
//
// Exit status: 0 clean, 1 findings, 2 usage or load errors.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

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
		checks   = fs.String("checks", "", "comma-separated analyzer names to run (default: all)")
		listFlag = fs.Bool("list", false, "list the available analyzers and exit")
		jsonFlag = fs.Bool("json", false, "emit findings as a JSON array (file/line/col/analyzer/message/severity)")
		dir      = fs.String("C", ".", "change to this directory before loading packages")
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

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := lint.NewLoader().Load(*dir, patterns...)
	if err != nil {
		return fail(err)
	}
	diags, err := lint.RunAnalyzers(pkgs, analyzers)
	if err != nil {
		return fail(err)
	}

	if *jsonFlag {
		if err := lint.WriteJSON(stdout, diags); err != nil {
			return fail(err)
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) == 0 {
		return 0
	}
	fmt.Fprintf(stderr, "permlint: %d finding(s)\n", len(diags))
	return 1
}
