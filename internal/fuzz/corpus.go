package fuzz

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// CorpusCase is one file of a fuzz corpus directory
// (testdata/fuzz-corpus/*.sql): "--" comment lines and blank lines are
// dropped and the remaining lines joined by single spaces.
type CorpusCase struct {
	// Name is the file's base name.
	Name string
	// Query is the SQL statement.
	Query string
	// ExpectErr is the substring a "-- expect-error: <substring>" line
	// declares: every executor mode must fail with an error containing it.
	// Empty when the query must succeed.
	ExpectErr string
}

// ReadCorpus reads every *.sql file under dir in name order. A directory
// without corpus files, or a file without SQL, is an error.
func ReadCorpus(dir string) ([]CorpusCase, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.sql"))
	if err != nil || len(files) == 0 {
		return nil, fmt.Errorf("fuzz: no corpus files under %s", dir)
	}
	cases := make([]CorpusCase, 0, len(files))
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		c := CorpusCase{Name: filepath.Base(file)}
		var lines []string
		for _, line := range strings.Split(string(raw), "\n") {
			trimmed := strings.TrimSpace(line)
			if rest, ok := strings.CutPrefix(trimmed, "-- expect-error:"); ok {
				c.ExpectErr = strings.TrimSpace(rest)
			} else if trimmed != "" && !strings.HasPrefix(trimmed, "--") {
				lines = append(lines, trimmed)
			}
		}
		if c.Query = strings.Join(lines, " "); c.Query == "" {
			return nil, fmt.Errorf("fuzz: corpus file %s contains no SQL", file)
		}
		cases = append(cases, c)
	}
	return cases, nil
}
