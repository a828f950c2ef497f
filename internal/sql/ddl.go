package sql

// Data-definition and data-manipulation statements of the service layer:
// CREATE TABLE with declared column types and INSERT ... VALUES with
// literal rows. Package perm executes them against a statement scope's
// copy-on-write catalog layer (see internal/catalog.Layer): a session's
// own layer, or the base's.

import (
	"fmt"
	"strconv"
	"strings"

	"perm/internal/types"
)

// TableDef is CREATE TABLE name (col type, ...).
type TableDef struct {
	Name string
	Cols []ColDef
}

// ColDef is one declared column: a name and a value kind.
type ColDef struct {
	Name string
	Kind types.Kind
}

// InsertStmt is INSERT INTO name VALUES (lit, ...), (...). Values are
// literals (NULL, numbers with optional sign, strings, booleans); rows are
// type-checked against the table's declared or inferred kinds at execution
// time.
type InsertStmt struct {
	Table string
	Rows  [][]types.Value
}

// columnKinds maps the accepted type spellings of CREATE TABLE. The
// narrow spellings rejected by CAST (smallint, int4, real) are rejected
// here too: the engine has exactly these four kinds.
var columnKinds = map[string]types.Kind{
	"int": types.KindInt, "integer": types.KindInt, "bigint": types.KindInt,
	"float": types.KindFloat, "double": types.KindFloat,
	"string": types.KindString, "text": types.KindString, "varchar": types.KindString,
	"boolean": types.KindBool, "bool": types.KindBool,
}

// parseCreateTable parses the clause after CREATE TABLE.
func (p *parser) parseCreateTable() (*TableDef, error) {
	if p.peek().kind != tokIdent {
		return nil, p.errf("expected table name, found %s", p.peek())
	}
	def := &TableDef{Name: p.next().text}
	if err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	for {
		if p.peek().kind != tokIdent {
			return nil, p.errf("expected column name, found %s", p.peek())
		}
		col := p.next().text
		if seen[col] {
			return nil, fmt.Errorf("sql: column %q specified more than once", col)
		}
		seen[col] = true
		if p.peek().kind != tokIdent {
			return nil, p.errf("expected column type, found %s", p.peek())
		}
		typ := p.next().text
		// "double precision" is the two-word PostgreSQL spelling.
		if typ == "double" && p.peek().kind == tokIdent && p.peek().text == "precision" {
			p.next()
		}
		kind, ok := columnKinds[typ]
		if !ok {
			return nil, fmt.Errorf("sql: type %q does not exist (supported: %s)", typ, strings.Join(kindSpellings(), ", "))
		}
		def.Cols = append(def.Cols, ColDef{Name: col, Kind: kind})
		if p.accept(tokSymbol, ",") {
			continue
		}
		break
	}
	if err := p.expect(tokSymbol, ")"); err != nil {
		return nil, err
	}
	p.accept(tokSymbol, ";")
	if p.peek().kind != tokEOF {
		return nil, p.errf("unexpected %s after table definition", p.peek())
	}
	return def, nil
}

func kindSpellings() []string {
	return []string{"int", "bigint", "float", "double", "string", "text", "boolean"}
}

// parseInsert parses the clause after INSERT.
func (p *parser) parseInsert() (*InsertStmt, error) {
	if err := p.expect(tokKeyword, "INTO"); err != nil {
		return nil, err
	}
	if p.peek().kind != tokIdent {
		return nil, p.errf("expected table name, found %s", p.peek())
	}
	ins := &InsertStmt{Table: p.next().text}
	if err := p.expect(tokKeyword, "VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expect(tokSymbol, "("); err != nil {
			return nil, err
		}
		var row []types.Value
		for {
			v, err := p.parseLiteral()
			if err != nil {
				return nil, err
			}
			row = append(row, v)
			if p.accept(tokSymbol, ",") {
				continue
			}
			break
		}
		if err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		if p.accept(tokSymbol, ",") {
			continue
		}
		break
	}
	p.accept(tokSymbol, ";")
	if p.peek().kind != tokEOF {
		return nil, p.errf("unexpected %s after INSERT", p.peek())
	}
	return ins, nil
}

// parseLiteral parses one VALUES cell: NULL, TRUE/FALSE, a possibly signed
// number, or a string.
func (p *parser) parseLiteral() (types.Value, error) {
	neg := false
	if p.accept(tokSymbol, "-") {
		neg = true
	}
	t := p.peek()
	switch {
	case t.kind == tokKeyword && (t.text == "NULL" || t.text == "TRUE" || t.text == "FALSE"):
		if neg {
			return types.Null(), p.errf("cannot negate %s", t.text)
		}
		p.next()
		switch t.text {
		case "NULL":
			return types.Null(), nil
		case "TRUE":
			return types.NewBool(true), nil
		default:
			return types.NewBool(false), nil
		}
	case t.kind == tokNumber:
		p.next()
		if strings.ContainsAny(t.text, ".eE") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return types.Null(), fmt.Errorf("sql: invalid numeric literal %q", t.text)
			}
			if neg {
				f = -f
			}
			return types.NewFloat(f), nil
		}
		text := t.text
		if neg {
			text = "-" + text
		}
		i, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return types.Null(), fmt.Errorf("sql: integer literal %q out of range", text)
		}
		return types.NewInt(i), nil
	case t.kind == tokString:
		if neg {
			return types.Null(), p.errf("cannot negate a string literal")
		}
		p.next()
		return types.NewString(t.text), nil
	default:
		return types.Null(), p.errf("expected a literal value, found %s", t)
	}
}

// CheckInsertKinds verifies an INSERT's rows against the target's declared
// column kinds: every non-NULL value's kind must match (KindNull in kinds
// means the column's kind is unknown and admits anything).
func CheckInsertKinds(ins *InsertStmt, cols []string, kinds []types.Kind) error {
	for i, row := range ins.Rows {
		if len(row) != len(cols) {
			return fmt.Errorf("sql: INSERT row %d has %d values, table %q has %d columns", i+1, len(row), ins.Table, len(cols))
		}
		for j, v := range row {
			if v.Kind() == types.KindNull || j >= len(kinds) || kinds[j] == types.KindNull {
				continue
			}
			if v.Kind() != kinds[j] {
				return fmt.Errorf("sql: INSERT row %d column %q: %s value for %s column", i+1, cols[j], v.Kind(), kinds[j])
			}
		}
	}
	return nil
}
