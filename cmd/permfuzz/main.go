// Command permfuzz is the long-budget differential fuzzer: it generates
// random queries from a seed and runs each through the full strategy ×
// executor-mode matrix of internal/fuzz (streaming pipeline, materializing
// reference), shrinking and reporting
// every disagreement. The bounded version of the same corpus runs inside
// `go test ./internal/fuzz`; this command exists for nightly CI and for
// reproducing a reported failure from its seed.
//
//	go run ./cmd/permfuzz -seed 7 -n 2000            # PR-sized smoke
//	go run ./cmd/permfuzz -seed 20260729 -d 30m \
//	    -maxscans 7 -out fuzz-repros                 # nightly budget
//
// Exit status is non-zero when any query disagreed. Minimized repros are
// written to -out (or stdout) in the corpus file format, ready to be
// checked in under internal/fuzz/testdata/fuzz-corpus/.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"perm/internal/fuzz"
)

func main() {
	seed := flag.Int64("seed", 1, "generator and data seed")
	n := flag.Int("n", 10000, "number of queries to generate")
	d := flag.Duration("d", 0, "optional wall-clock budget; stops early when exceeded")
	out := flag.String("out", "", "directory for minimized repro files (stdout when empty)")
	maxScans := flag.Int("maxscans", fuzz.MaxProvScans, "max base-relation accesses for the provenance matrix")
	shrinkBudget := flag.Int("shrink", 300, "oracle runs the shrinker may spend per failure")
	flag.Parse()

	fuzz.MaxProvScans = *maxScans
	db := fuzz.NewDB(*seed)
	g := fuzz.NewGen(*seed)
	start := time.Now()
	fails, ran := 0, 0
	for i := 0; i < *n; i++ {
		if *d > 0 && time.Since(start) > *d {
			break
		}
		q := g.Next()
		ran++
		err := fuzz.Check(db, q)
		if err == nil {
			if ran%1000 == 0 {
				fmt.Fprintf(os.Stderr, "permfuzz: %d queries, %d failures, %s elapsed\n", ran, fails, time.Since(start).Round(time.Second))
			}
			continue
		}
		fails++
		min := fuzz.Shrink(db, q, *shrinkBudget)
		minErr := fuzz.Check(db, min)
		report := reproFile(*seed, i, q, min, err, minErr)
		if *out == "" {
			fmt.Println(report)
			continue
		}
		if mkErr := os.MkdirAll(*out, 0o755); mkErr != nil {
			fmt.Fprintf(os.Stderr, "permfuzz: %v\n", mkErr)
			os.Exit(2)
		}
		path := filepath.Join(*out, fmt.Sprintf("repro-seed%d-q%d.sql", *seed, i))
		if wrErr := os.WriteFile(path, []byte(report), 0o644); wrErr != nil {
			fmt.Fprintf(os.Stderr, "permfuzz: %v\n", wrErr)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "permfuzz: failure at query %d, repro written to %s\n", i, path)
	}
	fmt.Fprintf(os.Stderr, "permfuzz: done: %d queries, %d failures, %s\n", ran, fails, time.Since(start).Round(time.Second))
	if fails > 0 {
		os.Exit(1)
	}
}

// reproFile renders a failure in the corpus file format: comment header
// with the provenance of the repro, the minimized SQL as the payload.
func reproFile(seed int64, idx int, orig, min *fuzz.Query, err, minErr error) string {
	var b strings.Builder
	fmt.Fprintf(&b, "-- permfuzz seed %d query %d (replay: permfuzz -seed %d -n %d)\n", seed, idx, seed, idx+1)
	writeComment(&b, "failure", err)
	writeComment(&b, "minimized failure", minErr)
	fmt.Fprintf(&b, "-- original: %s\n", orig.SQL)
	fmt.Fprintf(&b, "%s\n", min.SQL)
	return b.String()
}

func writeComment(b *strings.Builder, label string, err error) {
	msg := "(none)"
	if err != nil {
		msg = err.Error()
	}
	for i, line := range strings.Split(msg, "\n") {
		if i == 0 {
			fmt.Fprintf(b, "-- %s: %s\n", label, line)
		} else {
			fmt.Fprintf(b, "--   %s\n", line)
		}
	}
}
