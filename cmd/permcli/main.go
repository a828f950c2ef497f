// Command permcli is an interactive SQL shell for the Perm reproduction,
// with the paper's SELECT PROVENANCE language extension.
//
//	permcli -demo                        # Figure 3's R and S preloaded
//	permcli -tpch 0.2                    # TPC-H-style data at scale 0.2
//	permcli -csv r=path/to/r.csv -csv s=path/to/s.csv
//
// Statements end with a semicolon (CREATE VIEW / DROP VIEW work too). Meta
// commands: \d lists relations, \explain <query> prints the (rewritten,
// optimized) plan, \advise <query> ranks the strategies by estimated cost,
// \strategy <Gen|Left|Move|Unn|UnnX|Auto> sets the rewrite strategy, \q
// quits.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"perm"
	"perm/internal/tpch"
)

type csvFlags []string

func (c *csvFlags) String() string     { return strings.Join(*c, ",") }
func (c *csvFlags) Set(v string) error { *c = append(*c, v); return nil }

func main() {
	var (
		demo   = flag.Bool("demo", false, "preload the paper's Figure 3 relations r(a,b) and s(c,d)")
		tpchSF = flag.Float64("tpch", 0, "preload TPC-H-style data at this scale factor")
		seed   = flag.Int64("seed", 1, "seed for generated data")
		csvs   csvFlags
	)
	flag.Var(&csvs, "csv", "load a relation from CSV as name=path (repeatable)")
	flag.Parse()

	db := perm.Open()
	if *demo {
		must(db.Register("r", []string{"a", "b"}, [][]any{{1, 1}, {2, 1}, {3, 2}}))
		must(db.Register("s", []string{"c", "d"}, [][]any{{1, 3}, {2, 4}, {4, 5}}))
		fmt.Println("loaded demo relations r(a, b) and s(c, d) from Figure 3 of the paper")
	}
	if *tpchSF > 0 {
		cat, counts := tpch.Generate(tpch.Config{SF: *tpchSF, Seed: *seed})
		for _, name := range cat.Names() {
			r, _ := cat.Relation(name)
			db.Catalog().Register(name, r)
		}
		fmt.Printf("loaded TPC-H scale %g (lineitem %d rows)\n", *tpchSF, counts.Lineitem)
	}
	for _, spec := range csvs {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			fatalf("-csv wants name=path, got %q", spec)
		}
		if err := loadCSV(db, name, path); err != nil {
			fatalf("loading %s: %v", path, err)
		}
		fmt.Printf("loaded %s from %s\n", name, path)
	}

	strategy := perm.Auto
	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := func() {
		if buf.Len() == 0 {
			fmt.Print("perm> ")
		} else {
			fmt.Print("  ... ")
		}
	}
	prompt()
	for in.Scan() {
		line := in.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, "\\") {
			if !meta(os.Stdout, db, trimmed, &strategy) {
				return
			}
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if strings.HasSuffix(trimmed, ";") {
			runQuery(os.Stdout, db, buf.String(), strategy)
			buf.Reset()
		}
		prompt()
	}
}

// meta handles a backslash command; it returns false to quit.
func meta(w io.Writer, db *perm.DB, cmd string, strategy *perm.Strategy) bool {
	switch {
	case cmd == "\\q" || cmd == "\\quit":
		return false
	case cmd == "\\d":
		for _, name := range db.Relations() {
			fmt.Fprintln(w, " ", name)
		}
	case strings.HasPrefix(cmd, "\\strategy"):
		arg := strings.TrimSpace(strings.TrimPrefix(cmd, "\\strategy"))
		switch perm.Strategy(arg) {
		case perm.Gen, perm.Left, perm.Move, perm.Unn, perm.UnnX, perm.Auto:
			*strategy = perm.Strategy(arg)
			fmt.Fprintln(w, "strategy set to", arg)
		default:
			fmt.Fprintln(w, "unknown strategy; want Gen, Left, Move, Unn, UnnX or Auto")
		}
	case strings.HasPrefix(cmd, "\\advise"):
		q := strings.TrimSpace(strings.TrimPrefix(cmd, "\\advise"))
		q = strings.TrimSuffix(q, ";")
		advice, err := db.Advise(q)
		if err != nil {
			fmt.Fprintln(w, "error:", err)
			break
		}
		for _, a := range advice {
			if a.Applicable {
				fmt.Fprintf(w, "  %-5s cost %.3g  (%s)\n", a.Strategy, a.Cost, a.Reason)
			} else {
				fmt.Fprintf(w, "  %-5s not applicable\n", a.Strategy)
			}
		}
	case strings.HasPrefix(cmd, "\\explain"):
		q := strings.TrimSpace(strings.TrimPrefix(cmd, "\\explain"))
		q = strings.TrimSuffix(q, ";")
		plan, err := db.Explain(q, perm.WithStrategy(*strategy))
		if err != nil {
			fmt.Fprintln(w, "error:", err)
		} else {
			fmt.Fprint(w, plan)
		}
	default:
		fmt.Fprintln(w, `meta commands: \d  \explain <query>  \advise <query>  \strategy <name>  \q`)
	}
	return true
}

func runQuery(w io.Writer, db *perm.DB, q string, strategy perm.Strategy) {
	res, err := db.Exec(q, perm.WithStrategy(strategy))
	if err != nil {
		fmt.Fprintln(w, "error:", err)
		return
	}
	if res == nil {
		fmt.Fprintln(w, "ok")
		return
	}
	fmt.Fprint(w, res.FormatTable())
	fmt.Fprintf(w, "(%d rows)\n", len(res.Rows))
	if len(res.Provenance) > 0 {
		fmt.Fprintf(w, "provenance columns start at %d; sources:", res.DataColumns+1)
		for _, g := range res.Provenance {
			fmt.Fprintf(w, " %s", g.Relation)
		}
		fmt.Fprintln(w)
	}
}

func must(err error) {
	if err != nil {
		fatalf("%v", err)
	}
}

// loadCSV loads one relation from a CSV file, closing it on every path.
func loadCSV(db *perm.DB, name, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return db.LoadCSV(name, f)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "permcli: "+format+"\n", args...)
	os.Exit(1)
}
