package sql

import (
	"fmt"
	"strconv"

	"perm/internal/types"
)

// Parse parses one SQL query (an optional trailing semicolon is allowed).
func Parse(input string) (*Stmt, error) {
	return newParser(input, nil, nil).query()
}

// Query parses the statement of the last Shape as a query; the literals
// Shape lifted come out as ParamLit nodes.
func (l *Lexed) Query() (*Stmt, error) {
	return newParser(l.input, l.params, l.slots).query()
}

// parser reads its tokens from the scanner one at a time.
type parser struct {
	s scanner
	// tok is the next token; tokEOF from a lexical error on.
	tok token
	// lexErr is the first lexical error of the input.
	lexErr error
	// params holds the values of the lifted literals, by slot, and slots
	// the slot of each number and string token in order (see Lexed).
	params []types.Value
	slots  []int32
	// lits counts the number and string tokens read.
	lits int
}

func newParser(input string, params []types.Value, slots []int32) *parser {
	p := &parser{s: scanner{input: input}, params: params, slots: slots}
	p.advance()
	return p
}

// advance reads the next token.
func (p *parser) advance() {
	if p.lexErr != nil {
		return
	}
	var lx lexeme
	if err := p.s.scan(&lx); err != nil {
		p.lexErr = err
		p.tok = token{kind: tokEOF, pos: len(p.s.input) + 1}
		return
	}
	p.tok = p.s.token(lx)
	if lx.kind == tokNumber || lx.kind == tokString {
		if p.lits < len(p.slots) {
			p.tok.param = p.slots[p.lits]
		}
		p.lits++
	}
}

// lexFirst returns the input's first lexical error, if it has one, and err
// otherwise: a statement that does not scan reports that, wherever the
// parse stopped.
func (p *parser) lexFirst(err error) error {
	for err != nil && p.lexErr == nil && p.tok.kind != tokEOF {
		p.advance()
	}
	if p.lexErr != nil {
		return p.lexErr
	}
	return err
}

// query parses the whole input as a query.
func (p *parser) query() (*Stmt, error) {
	stmt, err := p.parseQuery()
	if err := p.lexFirst(err); err != nil {
		return nil, err
	}
	return stmt, nil
}

// parseQuery parses a query up to the end of the input.
func (p *parser) parseQuery() (*Stmt, error) {
	stmt, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	p.accept(tokSymbol, ";")
	if p.peek().kind != tokEOF {
		return nil, p.errf("unexpected %s after end of statement", p.peek())
	}
	return stmt, nil
}

func (p *parser) peek() token { return p.tok }
func (p *parser) next() token { t := p.tok; p.advance(); return t }
func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("sql: position %d: %s", p.peek().pos, fmt.Sprintf(format, args...))
}

// accept consumes the next token if it matches, reporting success.
func (p *parser) accept(kind tokenKind, text string) bool {
	if p.peek().kind == kind && p.peek().text == text {
		p.advance()
		return true
	}
	return false
}

// expect consumes a required token.
func (p *parser) expect(kind tokenKind, text string) error {
	if !p.accept(kind, text) {
		return p.errf("expected %s, found %s", text, p.peek())
	}
	return nil
}

func (p *parser) acceptKeyword(kw string) bool { return p.accept(tokKeyword, kw) }

func (p *parser) parseStmt() (*Stmt, error) {
	sel, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	stmt := &Stmt{Left: sel}
	for _, kw := range []string{"UNION", "INTERSECT", "EXCEPT"} {
		if p.acceptKeyword(kw) {
			all := p.acceptKeyword("ALL")
			right, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			stmt.SetOp = &SetOpClause{Kind: kw, All: all, Right: right}
			return stmt, nil
		}
	}
	return stmt, nil
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if err := p.expect(tokKeyword, "SELECT"); err != nil {
		return nil, err
	}
	sel := &SelectStmt{Limit: -1}
	if p.acceptKeyword("PROVENANCE") {
		sel.Provenance = true
	}
	if p.acceptKeyword("DISTINCT") {
		sel.Distinct = true
	}
	if p.accept(tokSymbol, "*") {
		sel.Star = true
	} else {
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			col := SelectCol{E: e}
			if p.acceptKeyword("AS") {
				if p.peek().kind != tokIdent {
					return nil, p.errf("expected alias after AS, found %s", p.peek())
				}
				col.Alias = p.next().text
			} else if p.peek().kind == tokIdent {
				col.Alias = p.next().text
			}
			sel.Cols = append(sel.Cols, col)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
	}
	// FROM is optional: "SELECT 1" evaluates its select list over a single
	// empty tuple, as in PostgreSQL.
	if p.acceptKeyword("FROM") {
		for {
			ref, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			sel.From = append(sel.From, ref)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
	}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = e
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, e)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
	}
	if p.acceptKeyword("HAVING") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Having = e
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			key := OrderKey{E: e}
			if p.acceptKeyword("DESC") {
				key.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			sel.OrderBy = append(sel.OrderBy, key)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
	}
	// LIMIT and OFFSET, in either order (PostgreSQL accepts both spellings),
	// each at most once.
	sawLimit, sawOffset := false, false
	for {
		switch {
		case !sawLimit && p.acceptKeyword("LIMIT"):
			sawLimit = true
			if p.peek().kind != tokNumber {
				return nil, p.errf("expected number after LIMIT, found %s", p.peek())
			}
			n, err := strconv.Atoi(p.next().text)
			if err != nil || n < 0 {
				return nil, p.errf("invalid LIMIT value")
			}
			sel.Limit = n
		case !sawOffset && p.acceptKeyword("OFFSET"):
			sawOffset = true
			if p.peek().kind != tokNumber {
				return nil, p.errf("expected number after OFFSET, found %s", p.peek())
			}
			n, err := strconv.Atoi(p.next().text)
			if err != nil || n < 0 {
				return nil, p.errf("invalid OFFSET value")
			}
			sel.Offset = n
		default:
			return sel, nil
		}
	}
}

// parseTableRef parses one FROM item including any chained joins.
func (p *parser) parseTableRef() (TableRef, error) {
	left, err := p.parseTablePrimary()
	if err != nil {
		return TableRef{}, err
	}
	for {
		leftOuter := false
		switch {
		case p.acceptKeyword("JOIN"):
		case p.acceptKeyword("INNER"):
			if err := p.expect(tokKeyword, "JOIN"); err != nil {
				return TableRef{}, err
			}
		case p.acceptKeyword("LEFT"):
			p.acceptKeyword("OUTER")
			if err := p.expect(tokKeyword, "JOIN"); err != nil {
				return TableRef{}, err
			}
			leftOuter = true
		default:
			return left, nil
		}
		right, err := p.parseTablePrimary()
		if err != nil {
			return TableRef{}, err
		}
		if err := p.expect(tokKeyword, "ON"); err != nil {
			return TableRef{}, err
		}
		on, err := p.parseExpr()
		if err != nil {
			return TableRef{}, err
		}
		left = TableRef{Join: &JoinRef{Left: left, Right: right, LeftOuter: leftOuter, On: on}}
	}
}

func (p *parser) parseTablePrimary() (TableRef, error) {
	if p.accept(tokSymbol, "(") {
		sub, err := p.parseStmt()
		if err != nil {
			return TableRef{}, err
		}
		if err := p.expect(tokSymbol, ")"); err != nil {
			return TableRef{}, err
		}
		p.acceptKeyword("AS")
		if p.peek().kind != tokIdent {
			return TableRef{}, p.errf("subquery in FROM requires an alias")
		}
		return TableRef{Sub: sub, Alias: p.next().text}, nil
	}
	if p.peek().kind != tokIdent {
		return TableRef{}, p.errf("expected table name, found %s", p.peek())
	}
	ref := TableRef{Table: p.next().text}
	if p.acceptKeyword("AS") {
		if p.peek().kind != tokIdent {
			return TableRef{}, p.errf("expected alias after AS, found %s", p.peek())
		}
		ref.Alias = p.next().text
	} else if p.peek().kind == tokIdent {
		ref.Alias = p.next().text
	}
	return ref, nil
}

// --- expressions ---

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = Binary{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = Binary{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return Unary{Op: "NOT", E: e}, nil
	}
	return p.parsePredicate()
}

// cmpOps are the comparison operator spellings.
var cmpOps = map[string]bool{"=": true, "<>": true, "<": true, "<=": true, ">": true, ">=": true}

func (p *parser) parsePredicate() (Expr, error) {
	if p.acceptKeyword("EXISTS") {
		sub, err := p.parseParenStmt()
		if err != nil {
			return nil, err
		}
		return Exists{Sub: sub}, nil
	}
	l, err := p.parseConcat()
	if err != nil {
		return nil, err
	}
	// Comparison, possibly quantified.
	if p.peek().kind == tokSymbol && cmpOps[p.peek().text] {
		opPos := p.peek().pos
		op := p.next().text
		if p.acceptKeyword("ANY") || p.acceptKeyword("SOME") {
			sub, err := p.parseParenStmt()
			if err != nil {
				return nil, err
			}
			return Quant{Op: op, Any: true, E: l, Sub: sub}, nil
		}
		if p.acceptKeyword("ALL") {
			sub, err := p.parseParenStmt()
			if err != nil {
				return nil, err
			}
			return Quant{Op: op, Any: false, E: l, Sub: sub}, nil
		}
		r, err := p.parseConcat()
		if err != nil {
			return nil, err
		}
		return Binary{Op: op, L: l, R: r, Pos: opPos}, nil
	}
	not := false
	if p.acceptKeyword("NOT") {
		not = true
		// After "expr NOT" only IN, BETWEEN and LIKE may follow.
	}
	switch {
	case p.acceptKeyword("IS"):
		if not {
			return nil, p.errf("unexpected NOT before IS")
		}
		isNot := p.acceptKeyword("NOT")
		if err := p.expect(tokKeyword, "NULL"); err != nil {
			return nil, err
		}
		return IsNull{E: l, Not: isNot}, nil
	case p.acceptKeyword("IN"):
		if err := p.expect(tokSymbol, "("); err != nil {
			return nil, err
		}
		if p.peek().kind == tokKeyword && p.peek().text == "SELECT" {
			sub, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			if err := p.expect(tokSymbol, ")"); err != nil {
				return nil, err
			}
			return InSub{E: l, Sub: sub, Not: not}, nil
		}
		var list []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
		if err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		return InList{E: l, List: list, Not: not}, nil
	case p.acceptKeyword("BETWEEN"):
		lo, err := p.parseConcat()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokKeyword, "AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseConcat()
		if err != nil {
			return nil, err
		}
		return Between{E: l, Lo: lo, Hi: hi, Not: not}, nil
	}
	if likePos := p.peek().pos; p.acceptKeyword("LIKE") {
		pat, err := p.parseConcat()
		if err != nil {
			return nil, err
		}
		return Like{E: l, Pattern: pat, Not: not, Pos: likePos}, nil
	}
	if not {
		return nil, p.errf("expected IN, BETWEEN or LIKE after NOT")
	}
	return l, nil
}

// parseConcat parses the || level, which binds looser than additive
// arithmetic and tighter than comparisons (PostgreSQL's operator
// precedence).
func (p *parser) parseConcat() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tokSymbol && p.peek().text == "||" {
		pos := p.next().pos
		r, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		l = Binary{Op: "||", L: l, R: r, Pos: pos}
	}
	return l, nil
}

// parseCase parses the remainder of a CASE expression after the CASE
// keyword: both the searched form (CASE WHEN cond THEN r …) and the simple
// form (CASE operand WHEN v THEN r …), with an optional ELSE and a required
// END.
func (p *parser) parseCase() (Expr, error) {
	c := Case{}
	if !(p.peek().kind == tokKeyword && p.peek().text == "WHEN") {
		operand, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Operand = operand
	}
	for p.acceptKeyword("WHEN") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokKeyword, "THEN"); err != nil {
			return nil, err
		}
		result, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, CaseWhen{Cond: cond, Result: result})
	}
	if len(c.Whens) == 0 {
		return nil, p.errf("expected WHEN in CASE expression, found %s", p.peek())
	}
	if p.acceptKeyword("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if err := p.expect(tokKeyword, "END"); err != nil {
		return nil, err
	}
	return c, nil
}

// parseCast parses the remainder of CAST(expr AS type) after the CAST
// keyword. The type name is validated by the semantic analyzer (or the
// translator), not the parser.
func (p *parser) parseCast(pos int) (Expr, error) {
	if err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(tokKeyword, "AS"); err != nil {
		return nil, err
	}
	if p.peek().kind != tokIdent {
		return nil, p.errf("expected type name in CAST, found %s", p.peek())
	}
	typ := p.next().text
	if err := p.expect(tokSymbol, ")"); err != nil {
		return nil, err
	}
	return CastExpr{E: e, Type: typ, Pos: pos}, nil
}

func (p *parser) parseParenStmt() (*Stmt, error) {
	if err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	sub, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	if err := p.expect(tokSymbol, ")"); err != nil {
		return nil, err
	}
	return sub, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		pos := p.peek().pos
		if p.accept(tokSymbol, "+") {
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = Binary{Op: "+", L: l, R: r, Pos: pos}
		} else if p.accept(tokSymbol, "-") {
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = Binary{Op: "-", L: l, R: r, Pos: pos}
		} else {
			return l, nil
		}
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		pos := p.peek().pos
		switch {
		case p.accept(tokSymbol, "*"):
			op = "*"
		case p.accept(tokSymbol, "/"):
			op = "/"
		case p.accept(tokSymbol, "%"):
			op = "%"
		default:
			return l, nil
		}
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = Binary{Op: op, L: l, R: r, Pos: pos}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.accept(tokSymbol, "-") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return Unary{Op: "-", E: e}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	if t.param > 0 {
		p.next()
		return ParamLit{Idx: int(t.param) - 1, Kind: p.params[t.param-1].Kind()}, nil
	}
	switch t.kind {
	case tokNumber:
		p.next()
		v, ok := numberValue(t.text)
		if !ok {
			return nil, p.errf("invalid number %q", t.text)
		}
		if v.Kind() == types.KindInt {
			return NumLit{Int: v.Int(), Pos: t.pos}, nil
		}
		return NumLit{Float: v.Float(), IsFlt: true, Pos: t.pos}, nil
	case tokString:
		p.next()
		return StrLit{S: t.text}, nil
	case tokKeyword:
		switch t.text {
		case "NULL":
			p.next()
			return NullLit{}, nil
		case "TRUE":
			p.next()
			return BoolLit{B: true}, nil
		case "FALSE":
			p.next()
			return BoolLit{B: false}, nil
		case "CASE":
			p.next()
			return p.parseCase()
		case "CAST":
			p.next()
			return p.parseCast(t.pos)
		}
		return nil, p.errf("unexpected keyword %s in expression", t.text)
	case tokIdent:
		p.next()
		// Function call?
		if p.accept(tokSymbol, "(") {
			call := Call{Name: t.text, Pos: t.pos}
			if p.accept(tokSymbol, "*") {
				call.Star = true
				if err := p.expect(tokSymbol, ")"); err != nil {
					return nil, err
				}
				return call, nil
			}
			if p.acceptKeyword("DISTINCT") {
				call.Distinct = true
			}
			if !p.accept(tokSymbol, ")") {
				for {
					arg, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					call.Args = append(call.Args, arg)
					if !p.accept(tokSymbol, ",") {
						break
					}
				}
				if err := p.expect(tokSymbol, ")"); err != nil {
					return nil, err
				}
			}
			return call, nil
		}
		// Qualified reference?
		if p.accept(tokSymbol, ".") {
			if p.peek().kind != tokIdent {
				return nil, p.errf("expected column name after %s.", t.text)
			}
			return Ident{Qual: t.text, Name: p.next().text, Pos: t.pos}, nil
		}
		return Ident{Name: t.text, Pos: t.pos}, nil
	case tokSymbol:
		if t.text == "(" {
			p.next()
			if p.peek().kind == tokKeyword && p.peek().text == "SELECT" {
				sub, err := p.parseStmt()
				if err != nil {
					return nil, err
				}
				if err := p.expect(tokSymbol, ")"); err != nil {
					return nil, err
				}
				return ScalarSub{Sub: sub}, nil
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(tokSymbol, ")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errf("unexpected %s in expression", t)
}
