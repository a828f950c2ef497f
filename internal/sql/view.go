package sql

import (
	"fmt"
	"strings"

	"perm/internal/algebra"
	"perm/internal/catalog"
)

// Statement is a script-level statement: either a query or a view
// definition (Perm stores provenance-free queries as views and reuses them
// as subqueries, §3.1).
type Statement struct {
	// Query is set for SELECT statements.
	Query *Stmt
	// CreateView / DropView are set for CREATE VIEW name AS … and
	// DROP VIEW name.
	CreateView *ViewDef
	DropView   string
	// CreateTable / Insert / DropTable are set for the DDL/DML statements
	// of the service layer: CREATE TABLE name (col type, …),
	// INSERT INTO name VALUES (…), … and DROP TABLE name.
	CreateTable *TableDef
	Insert      *InsertStmt
	DropTable   string
}

// ViewDef is a named stored query.
type ViewDef struct {
	Name string
	Body *Stmt
}

// ParseStatement parses any statement: a query, CREATE VIEW or TABLE, DROP
// VIEW or TABLE, or INSERT.
func ParseStatement(input string) (*Statement, error) {
	p := newParser(input, nil, nil)
	st, err := p.parseStatement()
	if err := p.lexFirst(err); err != nil {
		return nil, err
	}
	return st, nil
}

func (p *parser) parseStatement() (*Statement, error) {
	switch {
	case p.acceptKeyword("CREATE"):
		if p.acceptKeyword("TABLE") {
			def, err := p.parseCreateTable()
			if err != nil {
				return nil, err
			}
			return &Statement{CreateTable: def}, nil
		}
		if err := p.expect(tokKeyword, "VIEW"); err != nil {
			return nil, err
		}
		if p.peek().kind != tokIdent {
			return nil, p.errf("expected view name, found %s", p.peek())
		}
		name := p.next().text
		if err := p.expect(tokKeyword, "AS"); err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		p.accept(tokSymbol, ";")
		if p.peek().kind != tokEOF {
			return nil, p.errf("unexpected %s after view definition", p.peek())
		}
		if body.Left.Provenance {
			return nil, fmt.Errorf("sql: views cannot use SELECT PROVENANCE; query the view with PROVENANCE instead")
		}
		return &Statement{CreateView: &ViewDef{Name: name, Body: body}}, nil
	case p.acceptKeyword("DROP"):
		isTable := p.acceptKeyword("TABLE")
		if !isTable {
			if err := p.expect(tokKeyword, "VIEW"); err != nil {
				return nil, err
			}
		}
		kw := "VIEW"
		if isTable {
			kw = "TABLE"
		}
		if p.peek().kind != tokIdent {
			return nil, p.errf("expected %s name, found %s", strings.ToLower(kw), p.peek())
		}
		name := p.next().text
		p.accept(tokSymbol, ";")
		if p.peek().kind != tokEOF {
			return nil, p.errf("unexpected %s after DROP %s", p.peek(), kw)
		}
		if isTable {
			return &Statement{DropTable: name}, nil
		}
		return &Statement{DropView: name}, nil
	case p.acceptKeyword("INSERT"):
		ins, err := p.parseInsert()
		if err != nil {
			return nil, err
		}
		return &Statement{Insert: ins}, nil
	default:
		stmt, err := p.parseQuery()
		if err != nil {
			return nil, err
		}
		return &Statement{Query: stmt}, nil
	}
}

// Env is the translation environment: the base catalog plus named views
// (nil for none). Views shadow base relations of the same name and may
// reference other views; cycles are rejected.
type Env struct {
	Catalog catalog.Source
	Views   *catalog.State[ViewDef]
}

// CompileEnv parses, analyzes and translates a query against an environment
// with views.
func CompileEnv(env Env, query string) (*Translated, error) {
	stmt, err := Parse(query)
	if err != nil {
		return nil, err
	}
	if err := Analyze(env, stmt); err != nil {
		return nil, err
	}
	return Translate(env, stmt)
}

// expandView translates a view reference under an alias, guarding against
// cycles via the expansion stack.
func (tr *translator) expandView(def *ViewDef, alias string) (algebra.Op, error) {
	for _, name := range tr.viewStack {
		if name == def.Name {
			return nil, fmt.Errorf("sql: cyclic view definition involving %q", def.Name)
		}
	}
	tr.viewStack = append(tr.viewStack, def.Name)
	defer func() { tr.viewStack = tr.viewStack[:len(tr.viewStack)-1] }()
	body, err := tr.stmt(def.Body, false)
	if err != nil {
		return nil, fmt.Errorf("sql: expanding view %q: %w", def.Name, err)
	}
	if alias == "" {
		alias = def.Name
	}
	cols := make([]algebra.ProjExpr, body.Schema().Len())
	for i, a := range body.Schema().Attrs {
		cols[i] = algebra.ProjExpr{E: algebra.QAttr(a.Qual, a.Name), As: a.Name, Qual: alias}
	}
	return algebra.NewProject(body, cols...), nil
}
