package perm_test

import (
	"fmt"
	"log"

	"perm"
)

// Example reproduces query q1 of the paper's Figure 3: the provenance of a
// selection with an ANY sublink.
func Example() {
	db := perm.Open()
	if err := db.Register("r", []string{"a", "b"}, [][]any{{1, 1}, {2, 1}, {3, 2}}); err != nil {
		log.Fatal(err)
	}
	if err := db.Register("s", []string{"c", "d"}, [][]any{{1, 3}, {2, 4}, {4, 5}}); err != nil {
		log.Fatal(err)
	}
	res, err := db.Query(`SELECT PROVENANCE * FROM r WHERE a = ANY (SELECT c FROM s)`)
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range res.Rows {
		fmt.Println(row)
	}
	// Output:
	// [1 1 1 1 1 3]
	// [2 1 2 1 2 4]
}

// ExampleDB_Query_strategy selects a specific rewrite strategy and shows
// that the restricted strategies refuse correlated sublinks.
func ExampleDB_Query_strategy() {
	db := perm.Open()
	_ = db.Register("r", []string{"a", "b"}, [][]any{{1, 1}})
	_ = db.Register("s", []string{"c"}, [][]any{{1}})

	correlated := `SELECT PROVENANCE a FROM r WHERE a = ANY (SELECT c FROM s WHERE c = b)`
	if _, err := db.Query(correlated, perm.WithStrategy(perm.Left)); err != nil {
		fmt.Println("Left refuses correlated sublinks")
	}
	res, err := db.Query(correlated, perm.WithStrategy(perm.Gen))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(len(res.Rows), "provenance row(s) under Gen")
	// Output:
	// Left refuses correlated sublinks
	// 1 provenance row(s) under Gen
}

// figure3 loads the R and S of the paper's Figure 3.
func figure3() *perm.DB {
	db := perm.Open()
	_ = db.Register("r", []string{"a", "b"}, [][]any{{1, 1}, {2, 1}, {3, 2}})
	_ = db.Register("s", []string{"c", "d"}, [][]any{{1, 3}, {2, 4}, {4, 5}})
	return db
}

// ExampleWithStrategy_gen: the Gen strategy (rules G1/G2) rewrites every
// sublink, including this correlated one, by joining against the
// null-extended sublink base relations.
func ExampleWithStrategy_gen() {
	db := figure3()
	res, err := db.Query(`SELECT PROVENANCE a FROM r WHERE EXISTS (SELECT c FROM s WHERE c = b)`,
		perm.WithStrategy(perm.Gen))
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range res.Rows {
		fmt.Println(row)
	}
	// Output:
	// [1 1 1 1 3]
	// [2 2 1 1 3]
	// [3 3 2 2 4]
}

// ExampleWithStrategy_left: the Left strategy (rules L1/L2) left outer
// joins the rewritten sublink query; it refuses correlated sublinks.
func ExampleWithStrategy_left() {
	db := figure3()
	res, err := db.Query(`SELECT PROVENANCE a FROM r WHERE a = ANY (SELECT c FROM s)`,
		perm.WithStrategy(perm.Left))
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range res.Rows {
		fmt.Println(row)
	}
	// Output:
	// [1 1 1 1 3]
	// [2 2 1 2 4]
}

// ExampleWithStrategy_move: the Move strategy (rules T1/T2) computes the
// sublink once in a projection and reuses its value in the join condition.
func ExampleWithStrategy_move() {
	db := figure3()
	res, err := db.Query(`SELECT PROVENANCE a FROM r WHERE a = ANY (SELECT c FROM s)`,
		perm.WithStrategy(perm.Move))
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range res.Rows {
		fmt.Println(row)
	}
	// Output:
	// [1 1 1 1 3]
	// [2 2 1 2 4]
}

// ExampleWithStrategy_unn: the Unn strategy (rules U1/U2) unnests the
// equality-ANY sublink into a plain equi-join — the paper's fastest
// strategy where its patterns match.
func ExampleWithStrategy_unn() {
	db := figure3()
	res, err := db.Query(`SELECT PROVENANCE a FROM r WHERE a = ANY (SELECT c FROM s)`,
		perm.WithStrategy(perm.Unn))
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range res.Rows {
		fmt.Println(row)
	}
	// Output:
	// [1 1 1 1 3]
	// [2 2 1 2 4]
}

// ExampleWithStrategy_unnX: UnnX extends unnesting to ALL, negated and
// scalar sublinks (the paper's future-work direction); Unn itself has no
// rule for this ALL sublink.
func ExampleWithStrategy_unnX() {
	db := figure3()
	query := `SELECT PROVENANCE a FROM r WHERE a < ALL (SELECT c FROM s WHERE c > 3)`
	if _, err := db.Query(query, perm.WithStrategy(perm.Unn)); err != nil {
		fmt.Println("Unn has no rule for ALL sublinks")
	}
	res, err := db.Query(query, perm.WithStrategy(perm.UnnX))
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range res.Rows {
		fmt.Println(row)
	}
	// Output:
	// Unn has no rule for ALL sublinks
	// [1 1 1 4 5]
	// [2 2 1 4 5]
	// [3 3 2 4 5]
}

// ExampleDB_Advise ranks the strategies with the provenance-aware cost
// model before running anything.
func ExampleDB_Advise() {
	db := perm.Open()
	_ = db.Register("r", []string{"a"}, [][]any{{1}, {2}})
	_ = db.Register("s", []string{"c"}, [][]any{{2}})

	advice, err := db.Advise(`SELECT a FROM r WHERE a = ANY (SELECT c FROM s)`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("cheapest:", advice[0].Strategy)
	fmt.Println("most expensive applicable:", advice[len(advice)-1].Strategy)
	// Output:
	// cheapest: Unn
	// most expensive applicable: Gen
}

// ExampleDB_Exec_views stores a query as a view and asks for provenance
// through it; the provenance traces to the base relations behind the view.
func ExampleDB_Exec_views() {
	db := perm.Open()
	_ = db.Register("r", []string{"a", "b"}, [][]any{{1, 1}, {2, 1}, {3, 2}})
	if _, err := db.Exec(`CREATE VIEW small AS SELECT a, b FROM r WHERE a <= 2`); err != nil {
		log.Fatal(err)
	}
	res, err := db.Query(`SELECT PROVENANCE a FROM small ORDER BY a`)
	if err != nil {
		log.Fatal(err)
	}
	for _, g := range res.Provenance {
		fmt.Println("source:", g.Relation)
	}
	fmt.Println("rows:", len(res.Rows))
	// Output:
	// source: r
	// rows: 2
}
