package sql

import (
	"encoding/binary"
	"strconv"
	"strings"

	"perm/internal/types"
)

// Lexed reads statements for the plan cache: Shape computes a statement's
// shape and parameter vector, and Query parses the statement with the
// literals Shape lifted. It holds no tokens. A Lexed is reused from
// statement to statement, so that reading one allocates nothing once its
// buffers have grown; it is not safe for concurrent use.
type Lexed struct {
	input string
	// params are the values Shape lifted out, by slot.
	params []types.Value
	// slots holds, for each number and string token of the statement in
	// order, the slot it reads, 0 where it stands for itself; nil when the
	// statement was not lifted.
	slots []int32

	// Shape's scratch, kept for the next statement.
	lits    []literal
	classes []litClass
	// clause[d] is the clause the scan is in at parenthesis depth d: 'l' in
	// a list whose items may be ordinals or what ordinals stand for (select
	// list, ORDER BY, GROUP BY), 0 elsewhere.
	clause []byte
	// byValue indexes classes by value once there are more than
	// linearClasses of them; below that they are searched in order.
	byValue map[types.Value]int32
}

// linearClasses is the number of literal classes Shape looks up by a linear
// scan; past it, a map.
const linearClasses = 16

// literal is one number or string token of a statement being lifted.
type literal struct {
	// class indexes Lexed.classes; -1 for a number token that does not
	// parse, which stands for itself.
	class int32
	// at is the family offset of the literal's placeholder, -1 where the
	// family spells the literal out.
	at int
	// start and end delimit the literal in the statement, quotes included.
	start, end int
}

// litClass is the literals of a statement of one kind and value.
type litClass struct {
	val types.Value
	// inline: the class stays in the shape by value.
	inline bool
	// slot is the class's one-based parameter slot once it has one.
	slot int32
}

// Shape reads a statement once and computes its shape — the statement with
// its value literals lifted out into a parameter vector. Two statements with
// the same shape compile to the same plan up to the vector: Query, called
// after Shape, yields the lifted literals as ParamLit nodes, which the
// translator lowers to algebra.Param leaves. Shape returns the statement's
// first lexical error, if it has one.
//
// The shape comes in two parts, both appended to dst: family is dst up to
// the pattern, and the pattern runs to dst's end. The family is the token
// sequence — keywords in upper case, identifiers in lower case, strings
// quoted — with every lifted literal replaced by a placeholder that names
// its kind; the pattern lists, for the lifted literals in order, the slot
// each one reads. Statements of one family differ in which of their
// literals happen to be equal, and their plans in little else. params is
// valid until the next Shape.
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
//
// The last rule can reach back: in `a > 3 … LIMIT 3` the count keeps the
// earlier 3 in the family. The scan writes a placeholder for every literal
// not yet known to stay, and spells out, once the scan is over, the
// placeholders of classes that turned out to stay.
func (l *Lexed) Shape(input string, dst []byte) (family, pattern []byte, params []types.Value, err error) {
	l.input = input
	l.params, l.slots = l.params[:0], l.slots[:0]
	l.lits, l.classes = l.lits[:0], l.classes[:0]
	clause := append(l.clause[:0], 0)
	s := scanner{input: input}
	// atStart: only parentheses and minus signs since a list item began.
	// count: the previous token was LIMIT or OFFSET.
	// tight: the previous token was a parenthesis or a comma. Tokens are
	// separated by a blank, except around those, which cannot run into a
	// neighbour.
	atStart, count, tight := false, false, true
	var lx lexeme
	for {
		if err := s.scan(&lx); err != nil {
			l.clause = clause
			return nil, nil, nil, err
		}
		if lx.kind == tokEOF {
			break
		}
		wasTight := tight
		tight = lx.kind == tokSymbol && (lx.text == "(" || lx.text == ")" || lx.text == ",")
		if !tight && !wasTight {
			dst = append(dst, ' ')
		}
		afterCount := count
		count = false
		switch lx.kind {
		case tokKeyword:
			dst = append(dst, lx.text...)
			switch lx.text {
			case "SELECT", "BY":
				clause[len(clause)-1] = 'l'
				atStart = true
			case "DISTINCT", "PROVENANCE":
				// still at the start of the first select-list item
			case "LIMIT", "OFFSET":
				count = true
				fallthrough
			case "FROM", "WHERE", "HAVING", "UNION", "INTERSECT", "EXCEPT", "GROUP", "ORDER":
				clause[len(clause)-1] = 0
				atStart = false
			default:
				atStart = false
			}
		case tokSymbol:
			dst = append(dst, lx.text...)
			switch lx.text {
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
		case tokIdent:
			if lx.rewrite {
				dst = appendLower(dst, input[lx.start:lx.end])
			} else {
				dst = append(dst, input[lx.start:lx.end]...)
			}
			atStart = false
		default:
			dst = l.literal(dst, lx, atStart || afterCount)
			atStart = false
		}
	}
	l.clause = clause

	l.inlineBothKinds()
	dst = l.spellStaying(dst)
	n := len(dst)
	for _, lit := range l.lits {
		slot := int32(0)
		if lit.class >= 0 {
			if c := &l.classes[lit.class]; !c.inline {
				if c.slot == 0 {
					l.params = append(l.params, c.val)
					c.slot = int32(len(l.params))
				}
				slot = c.slot
				dst = binary.AppendUvarint(dst, uint64(slot))
			}
		}
		l.slots = append(l.slots, slot)
	}
	return dst[:n], dst[n:], l.params, nil
}

// literal records a number or string token and writes it to the family,
// spelled out or as a placeholder. stays says its position keeps it in the
// family.
func (l *Lexed) literal(dst []byte, lx lexeme, stays bool) []byte {
	lit := literal{class: -1, at: -1, start: lx.start, end: lx.end}
	var v types.Value
	if lx.kind == tokString {
		lit.start, lit.end = lx.start-1, lx.end+1
		text := l.input[lx.start:lx.end]
		if lx.rewrite {
			text = strings.ReplaceAll(text, "''", "'")
		}
		v = types.NewString(text)
	} else if num, ok := numberValue(l.input[lx.start:lx.end]); ok {
		v = num
		stays = stays || num.Float() == 0
	} else {
		// not a number: the token stands for itself
		l.lits = append(l.lits, lit)
		return append(dst, l.input[lit.start:lit.end]...)
	}
	lit.class = l.classOf(v)
	c := &l.classes[lit.class]
	c.inline = c.inline || stays
	if c.inline {
		dst = append(dst, l.input[lit.start:lit.end]...)
	} else {
		lit.at = len(dst)
		dst = append(dst, '?', "nbifs"[v.Kind()])
	}
	l.lits = append(l.lits, lit)
	return dst
}

// classOf returns the index of v's class, making one for a value not seen
// before.
func (l *Lexed) classOf(v types.Value) int32 {
	if i, ok := l.find(v); ok {
		return i
	}
	l.classes = append(l.classes, litClass{val: v})
	i := int32(len(l.classes) - 1)
	switch {
	case len(l.classes) == linearClasses+1:
		if l.byValue == nil {
			l.byValue = make(map[types.Value]int32)
		}
		clear(l.byValue)
		for j, c := range l.classes {
			l.byValue[c.val] = int32(j)
		}
	case len(l.classes) > linearClasses:
		l.byValue[v] = i
	}
	return i
}

// find returns the index of v's class. Values compare with ==, which tells
// floats apart by their bits; that is value equality here, because a number
// token is digits and a dot only, so a scanned literal is never -0.0 or
// NaN.
func (l *Lexed) find(v types.Value) (int32, bool) {
	if len(l.classes) > linearClasses {
		i, ok := l.byValue[v]
		return i, ok
	}
	for i := range l.classes {
		if l.classes[i].val == v {
			return int32(i), true
		}
	}
	return 0, false
}

// inlineBothKinds keeps in the family every number that occurs as an
// integer and as a float: the two are compared as floats.
func (l *Lexed) inlineBothKinds() {
	for i := range l.classes {
		if v := l.classes[i].val; v.Kind() == types.KindInt {
			if j, ok := l.find(types.NewFloat(float64(v.Int()))); ok {
				l.classes[i].inline, l.classes[j].inline = true, true
			}
		}
	}
}

// spellStaying spells out the placeholders that the scan wrote for classes
// that stay in the family after all. The family from the first such
// placeholder on is rewritten past its end and moved back.
func (l *Lexed) spellStaying(dst []byte) []byte {
	from := -1
	for _, lit := range l.lits {
		if lit.at >= 0 && l.classes[lit.class].inline {
			from = lit.at
			break
		}
	}
	if from < 0 {
		return dst
	}
	end, prev := len(dst), from
	for _, lit := range l.lits {
		if lit.at < from || !l.classes[lit.class].inline {
			continue
		}
		dst = append(dst, dst[prev:lit.at]...)
		dst = append(dst, l.input[lit.start:lit.end]...)
		prev = lit.at + 2
	}
	dst = append(dst, dst[prev:end]...)
	return dst[:from+copy(dst[from:], dst[end:])]
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

// Unlift is the inverse of Shape: it spells out a statement of the given
// family and pattern with params for its lifted literals. The shape of the
// result is the same, provided params has the kinds the family names and
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
