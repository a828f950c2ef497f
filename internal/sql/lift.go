package sql

import (
	"encoding/binary"
	"strconv"
	"strings"

	"perm/internal/types"
)

// Lexed is a tokenized statement: the one lexing pass behind parsing and
// behind the plan cache's statement shapes.
type Lexed struct {
	toks []token
	// params are the values Lift lifted out, by slot.
	params []types.Value
}

// Lex tokenizes one statement.
func Lex(input string) (*Lexed, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	return &Lexed{toks: toks}, nil
}

// IsQuery reports whether the statement is to be parsed as a query (with
// Query) rather than as DDL or DML (with Statement).
func (l *Lexed) IsQuery() bool {
	t := l.toks[0]
	return t.kind != tokKeyword || t.text != "CREATE" && t.text != "DROP" && t.text != "INSERT"
}

// literal is one number or string token of a statement being lifted.
type literal struct {
	tok int
	val types.Value
	// inline: the literal stays in the shape by value.
	inline bool
	// first is the first literal of the same kind and value.
	first int
	// slot is the literal's one-based parameter slot once it has one.
	slot int32
}

// Lift computes the statement's shape — the statement with its value
// literals lifted out into a parameter vector. Two statements with the same
// shape compile to the same plan up to the vector: Query, called after Lift,
// yields the lifted literals as ParamLit nodes, which the translator lowers
// to algebra.Param leaves.
//
// The shape comes in two parts, both appended to dst. The family is the
// token sequence — keywords in upper case, identifiers in lower case,
// strings quoted — with every lifted literal replaced by a placeholder that
// names its kind; the pattern lists, for the lifted literals in order, the
// slot each one reads. Statements of one family differ in which of their
// literals happen to be equal, and their plans in little else.
//
// A number or string literal is lifted unless its value can steer
// compilation. It stays in the family by value when it
//
//   - follows LIMIT or OFFSET (the parser reads the count);
//   - begins an ORDER BY or GROUP BY key or a select-list item, behind any
//     parentheses and minus signs: a key that is nothing but a number is an
//     ordinal, a select-list item that is nothing but a literal is what an
//     ordinal is replaced by (see deOrdinal) — beginning one is all a token
//     scan sees, and keeping too many literals costs nothing but sharing;
//   - is a zero: the translator writes -x as 0 - x, and ExprEqual must keep
//     finding that equal to a 0 - x the user spelled out;
//   - does not parse as a number (the parser reports it);
//   - equals, as ExprEqual compares constants (numbers across int and
//     float), a literal of the statement that stays or that has the other
//     numeric kind.
//
// The last rule makes every other one safe to over-approximate and is half
// of what keeps equality decisions sound: within one statement, literals
// ExprEqual would call equal are lifted all or none. The other half is the
// pattern: lifted literals share a slot exactly when they are equal, so
// whatever analysis, translation or optimisation concluded from two
// literals being equal or different — `GROUP BY a+1` matching `SELECT a+1`
// — holds for every statement of the shape. NULL, TRUE and FALSE are
// keywords and CAST targets identifiers; neither is ever lifted.
func (l *Lexed) Lift(dst []byte) (family, pattern []byte, params []types.Value) {
	lits := l.literals()

	// Literals of one kind and value form a class, named by its first member.
	// The map compares Values with ==, which tells floats apart by their
	// bits; that is value equality here, because a number token is digits
	// and a dot only, so a lexed literal is never -0.0 or NaN.
	firsts := make(map[types.Value]int, len(lits))
	var numeric uint8 // the numeric kinds among the literals, one bit each
	for j := range lits {
		v := lits[j].val
		first, seen := firsts[v]
		if !seen {
			first, firsts[v] = j, j
		}
		lits[j].first = first
		if v.IsNumeric() {
			numeric |= 1 << v.Kind()
		}
	}
	const bothKinds = 1<<types.KindInt | 1<<types.KindFloat
	if numeric == bothKinds {
		// An integer and a float are compared as floats: a value that occurs
		// in both kinds stays.
		kindsOf := map[float64]uint8{}
		for _, lit := range lits {
			if lit.val.IsNumeric() {
				kindsOf[lit.val.Float()] |= 1 << lit.val.Kind()
			}
		}
		for j := range lits {
			if v := lits[j].val; v.IsNumeric() && kindsOf[v.Float()] == bothKinds {
				lits[j].inline = true
			}
		}
	}
	for _, lit := range lits {
		if lit.inline {
			lits[lit.first].inline = true
		}
	}
	l.params = l.params[:0]
	for j := range lits {
		first := &lits[lits[j].first]
		if lits[j].inline = first.inline; first.inline {
			continue
		}
		if first.slot == 0 {
			l.params = append(l.params, first.val)
			first.slot = int32(len(l.params))
		}
		lits[j].slot = first.slot
	}

	// Tokens are separated by a blank, except around parentheses and commas,
	// which cannot run into a neighbour.
	next, tight := 0, true
	for i := range l.toks {
		t := &l.toks[i]
		t.param = 0
		if next < len(lits) && lits[next].tok == i {
			t.param = lits[next].slot
			next++
		}
		if t.kind == tokEOF {
			continue
		}
		wasTight := tight
		tight = t.kind == tokSymbol && (t.text == "(" || t.text == ")" || t.text == ",")
		if !tight && !wasTight {
			dst = append(dst, ' ')
		}
		switch {
		case t.param > 0:
			dst = append(dst, '?', "nbifs"[l.params[t.param-1].Kind()])
		case t.kind == tokString:
			dst = append(dst, '\'')
			for j := 0; j < len(t.text); j++ {
				if t.text[j] == '\'' {
					dst = append(dst, '\'')
				}
				dst = append(dst, t.text[j])
			}
			dst = append(dst, '\'')
		default:
			dst = append(dst, t.text...)
		}
	}
	n := len(dst)
	for _, lit := range lits {
		if lit.slot > 0 {
			dst = binary.AppendUvarint(dst, uint64(lit.slot))
		}
	}
	return dst[:n:n], dst[n:], l.params
}

// literals collects the statement's number and string tokens with their
// values, marking inline the ones whose position or value rules lifting out
// (see Lift).
func (l *Lexed) literals() []literal {
	var lits []literal
	// clause[d] is the clause the scan is in at parenthesis depth d: 'l' in a
	// list whose items may be ordinals or what ordinals stand for (select
	// list, ORDER BY, GROUP BY), 0 elsewhere.
	clause := make([]byte, 1, 8)
	// atStart: only parentheses and minus signs since such an item began.
	atStart := false
	for i, t := range l.toks {
		switch t.kind {
		case tokKeyword:
			switch t.text {
			case "SELECT", "BY":
				clause[len(clause)-1] = 'l'
				atStart = true
			case "DISTINCT", "PROVENANCE":
				// still at the start of the first select-list item
			case "FROM", "WHERE", "HAVING", "LIMIT", "OFFSET", "UNION", "INTERSECT", "EXCEPT", "GROUP", "ORDER":
				clause[len(clause)-1] = 0
				atStart = false
			default:
				atStart = false
			}
		case tokSymbol:
			switch t.text {
			case "(":
				clause = append(clause, 0)
			case ")":
				if len(clause) > 1 {
					clause = clause[:len(clause)-1]
				}
				atStart = false
			case ",":
				atStart = clause[len(clause)-1] == 'l'
			case "-":
			default:
				atStart = false
			}
		case tokNumber, tokString:
			lit := literal{tok: i, inline: atStart}
			if prev := l.toks[max(i-1, 0)]; prev.kind == tokKeyword && (prev.text == "LIMIT" || prev.text == "OFFSET") {
				lit.inline = true
			}
			if t.kind == tokString {
				lit.val = types.NewString(t.text)
			} else if v, ok := numberValue(t.text); ok {
				lit.val = v
				lit.inline = lit.inline || v.Float() == 0
			} else {
				atStart = false
				continue // not a number: the token stands for itself
			}
			lits = append(lits, lit)
			atStart = false
		default:
			atStart = false
		}
	}
	return lits
}

// numberValue is the value of a number token: an integer when it fits one,
// a float otherwise. The lexer makes a number of digits and at most one dot,
// so a token with a dot is a float and goes straight to ParseFloat: trying
// ParseInt first would allocate its error on every float literal.
func numberValue(text string) (types.Value, bool) {
	if !strings.Contains(text, ".") {
		if i, err := strconv.ParseInt(text, 10, 64); err == nil {
			return types.NewInt(i), true
		}
	}
	f, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return types.Null(), false
	}
	return types.NewFloat(f), true
}

// Unlift is the inverse of Lift: it spells out a statement of the given
// family and pattern with params for its lifted literals. Lifting the result
// yields the same shape, provided params has the kinds the family names and
// the equalities the pattern records, no more and no fewer. The differential
// tests use it to make a statement's siblings: same shape, other values.
func Unlift(family, pattern []byte, params []types.Value) string {
	var b strings.Builder
	for i := 0; i < len(family); i++ {
		switch c := family[i]; c {
		case '\'': // a string that stayed: copy it, doubled quotes and all
			j := i + 1
			for ; j < len(family) && (family[j] != '\'' || j+1 < len(family) && family[j+1] == '\''); j++ {
				if family[j] == '\'' {
					j++
				}
			}
			b.Write(family[i : j+1])
			i = j
		case '?':
			slot, n := binary.Uvarint(pattern)
			pattern = pattern[n:]
			b.WriteString(spell(params[slot-1]))
			i++ // the kind
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// spell writes a value as the literal the lexer reads back as that value.
func spell(v types.Value) string {
	switch v.Kind() {
	case types.KindString:
		return "'" + strings.ReplaceAll(v.Str(), "'", "''") + "'"
	case types.KindFloat:
		text := strconv.FormatFloat(v.Float(), 'f', -1, 64)
		if !strings.Contains(text, ".") {
			text += ".0"
		}
		return text
	default:
		return v.String()
	}
}
