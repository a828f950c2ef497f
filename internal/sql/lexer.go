// Package sql implements the SQL front end of the Perm reproduction: a
// scanner, a recursive-descent parser, a semantic analyzer and a translator
// from the SQL AST to the extended relational algebra of internal/algebra.
//
// The dialect covers the subset the paper's workloads need — SELECT
// [DISTINCT] lists with expressions and aliases (FROM-less SELECT included),
// FROM with base tables, aliases, subqueries and INNER/LEFT JOIN … ON,
// WHERE/HAVING conditions with IN, NOT IN, op ANY/SOME, op ALL, [NOT]
// EXISTS and scalar subqueries (correlated or not, arbitrarily nested),
// [NOT] LIKE, || concatenation, the scalar functions
// upper/lower/length/substr, CAST(x AS type), GROUP BY, ORDER BY (both with
// select-list ordinals), LIMIT/OFFSET, UNION/INTERSECT/EXCEPT [ALL] — plus
// Perm's extension keyword:
//
//	SELECT PROVENANCE … ;
//
// marks the query for provenance rewriting, exactly like the language
// extension described in §4.1 of the paper.
//
// One scanner reads statements, in two modes. Lexed.Shape reads a statement
// once and writes its shape — the key of package perm's plan cache — and its
// parameter vector into buffers the caller reuses, keeping no tokens; that
// is all a cached plan needs. When no cached plan answers, Lexed.Query
// parses the statement from the scanner's tokens, one at a time, and the
// literals Shape lifted out parse as ParamLit nodes, which translate to
// algebra.Param leaves. Parse and ParseStatement parse a statement as
// written.
//
// Compilation runs in three passes. Parse builds the untyped AST. Analyze
// (see analyze.go) then resolves names and select-list ordinals, checks
// types bottom-up over kinds inferred from the catalog, resolves calls
// against the scalar function registry and enforces SQL's grouping and
// aggregate-placement rules, reporting errors with source positions and
// user-visible column names. Translate finally lowers the analyzed AST onto
// the algebra. Fine-grained provenance is only as trustworthy as the SQL
// interpretation feeding it, so the analyzer exists to turn every
// silently-wrong interpretation (no-op ORDER BY ordinals, cross-kind
// comparisons yielding Unknown) into a loud, PostgreSQL-compatible error.
package sql

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind classifies lexer tokens.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokNumber
	tokString
	tokSymbol
)

// token is one lexeme with its source position (1-based byte offset), as
// the parser reads it.
type token struct {
	kind tokenKind
	// param is the one-based parameter slot of a literal that Lexed.Shape
	// lifted out of the statement; 0 for a token that stands for itself.
	param int32
	text  string // keywords are upper-cased, identifiers lower-cased
	pos   int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of input"
	case tokString:
		return fmt.Sprintf("'%s'", t.text)
	default:
		return t.text
	}
}

// keywords of the dialect. SOME is an alias for ANY, as in SQL.
var keywords = [...]string{
	"SELECT", "DISTINCT", "PROVENANCE", "FROM",
	"WHERE", "GROUP", "BY", "HAVING", "ORDER",
	"LIMIT", "OFFSET", "AS", "AND", "OR", "NOT",
	"IN", "ANY", "SOME", "ALL", "EXISTS",
	"IS", "NULL", "TRUE", "FALSE", "JOIN",
	"INNER", "LEFT", "OUTER", "ON", "UNION",
	"INTERSECT", "EXCEPT", "ASC", "DESC",
	"BETWEEN", "LIKE", "CREATE", "VIEW",
	"DROP", "CASE", "WHEN", "THEN", "ELSE",
	"END", "CAST", "TABLE", "INSERT", "INTO",
	"VALUES",
}

// maxKeywordLen is the length of the longest keyword (PROVENANCE).
const maxKeywordLen = 10

// keywordHash places every keyword in its own entry of keywordTable: a
// multiplicative hash of the word's length and its first, second and last
// letters, folded to upper case. The multiplier was found by search; init
// panics should a change to the keyword list make two keywords collide.
func keywordHash(w string) uint {
	x := uint(len(w))<<24 | uint(w[0]&^0x20)<<16 | uint(w[1]&^0x20)<<8 | uint(w[len(w)-1]&^0x20)
	return x * 12716040133621986163 >> (64 - 7)
}

var keywordTable [1 << 7]string

func init() {
	for _, kw := range keywords {
		h := keywordHash(kw)
		if keywordTable[h] != "" {
			panic("sql: keywords " + kw + " and " + keywordTable[h] + " collide")
		}
		keywordTable[h] = kw
	}
}

// keyword returns the upper-case spelling of w if w is a keyword in any
// case, and "" otherwise.
func keyword(w string) string {
	if len(w) < 2 || len(w) > maxKeywordLen {
		return ""
	}
	kw := keywordTable[keywordHash(w)]
	if len(kw) != len(w) {
		return ""
	}
	// Keywords are letters only: a byte that folds to a keyword's upper-case
	// letter is that letter in one of its cases.
	for i := 0; i < len(w); i++ {
		if w[i]&^0x20 != kw[i] {
			return ""
		}
	}
	return kw
}

// Byte classes of the scanner, one table entry per byte. Bytes above ASCII
// are read as Latin-1, as the lexer always has.
const (
	cWord  = 1 << iota // continues a word: a letter, '_' or a digit
	cStart             // begins a word: a letter or '_'
	cDigit
	cBlank
	cUpper  // an upper-case letter: lower-casing adds 0x20
	cSymbol // a one-byte symbol token: = < > + - * / % ( ) , . ;
)

var class = func() (t [256]uint8) {
	for i := range t {
		c := byte(i)
		switch {
		case '0' <= c && c <= '9':
			t[i] = cWord | cDigit
		case 'a' <= c && c <= 'z' || c == '_':
			t[i] = cWord | cStart
		case 'A' <= c && c <= 'Z':
			t[i] = cWord | cStart | cUpper
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			t[i] = cBlank
		case strings.IndexByte("=<>+-*/%(),.;", c) >= 0:
			t[i] = cSymbol
		case c >= 0x80 && unicode.IsLetter(rune(c)):
			t[i] = cWord | cStart
			if unicode.IsUpper(rune(c)) {
				t[i] |= cUpper
			}
		}
	}
	return t
}()

// appendLower appends w lower-cased, byte by byte: a Latin-1 upper-case
// letter lies 0x20 below its lower-case one, as an ASCII one does.
func appendLower(dst []byte, w string) []byte {
	for i := 0; i < len(w); i++ {
		c := w[i]
		if class[c]&cUpper != 0 {
			c += 0x20
		}
		dst = append(dst, c)
	}
	return dst
}

// lexeme is one token as the scanner finds it, before anything is made of
// its text.
type lexeme struct {
	kind tokenKind
	// start and end delimit the token in the input; a string's run between
	// its quotes.
	start, end int
	// text is the spelling of a keyword or a symbol.
	text string
	// rewrite: the token's text is not input[start:end] as it stands — an
	// identifier with upper-case letters, a string with doubled quotes.
	rewrite bool
}

// scanner reads a statement's lexemes one at a time. Errors carry byte
// positions for messages.
type scanner struct {
	input string
	i     int
}

// scan reads the next lexeme into lx, tokEOF at the end of the input.
func (s *scanner) scan(lx *lexeme) error {
	in, n, i := s.input, len(s.input), s.i
	for i < n && (class[in[i]]&cBlank != 0 || in[i] == '-' && i+1 < n && in[i+1] == '-') {
		if in[i] == '-' { // a comment, to the end of the line
			for i < n && in[i] != '\n' {
				i++
			}
		} else {
			i++
		}
	}
	*lx = lexeme{kind: tokEOF, start: i}
	if i == n {
		lx.end = n
		return nil
	}
	switch c, cl := in[i], class[in[i]]; {
	case cl&cStart != 0:
		upper := uint8(0)
		for i < n && class[in[i]]&cWord != 0 {
			upper |= class[in[i]]
			i++
		}
		if lx.text = keyword(in[lx.start:i]); lx.text != "" {
			lx.kind = tokKeyword
		} else {
			lx.kind, lx.rewrite = tokIdent, upper&cUpper != 0
		}
	case cl&cDigit != 0 || c == '.' && i+1 < n && class[in[i+1]]&cDigit != 0:
		seenDot := false
		for i < n && (class[in[i]]&cDigit != 0 || in[i] == '.' && !seenDot) {
			seenDot = seenDot || in[i] == '.'
			i++
		}
		lx.kind = tokNumber
	case c == '\'':
		i++
		lx.kind, lx.start = tokString, i
		for {
			if i == n {
				return fmt.Errorf("sql: unterminated string literal at position %d", i)
			}
			if in[i] == '\'' {
				if i+1 < n && in[i+1] == '\'' { // escaped quote
					lx.rewrite = true
					i += 2
					continue
				}
				break
			}
			i++
		}
		lx.end = i // the closing quote
		s.i = i + 1
		return nil
	default:
		lx.kind = tokSymbol
		if i+1 < n {
			switch in[i : i+2] {
			case "<>", "!=":
				lx.text = "<>"
			case "<=":
				lx.text = "<="
			case ">=":
				lx.text = ">="
			case "||":
				lx.text = "||"
			}
		}
		if lx.text != "" {
			i += 2
			break
		}
		if cl&cSymbol == 0 {
			return fmt.Errorf("sql: unexpected character %q at position %d", c, i+1)
		}
		lx.text = in[i : i+1]
		i++
	}
	lx.end, s.i = i, i
	return nil
}

// token makes the parser's token of a lexeme. Words that need no folding
// and strings without doubled quotes are slices of the input.
func (s *scanner) token(lx lexeme) token {
	t := token{kind: lx.kind, text: lx.text, pos: lx.start + 1}
	switch lx.kind {
	case tokIdent:
		t.text = s.input[lx.start:lx.end]
		if lx.rewrite {
			t.text = string(appendLower(make([]byte, 0, len(t.text)), t.text))
		}
	case tokNumber:
		t.text = s.input[lx.start:lx.end]
	case tokString:
		t.text = s.input[lx.start:lx.end]
		if lx.rewrite {
			t.text = strings.ReplaceAll(t.text, "''", "'")
		}
		t.pos = lx.end + 1 // the closing quote
	}
	return t
}

// IsQuery reports whether a statement is to be run as a query rather than
// parsed as DDL or DML (with ParseStatement): whether its first word is
// anything but CREATE, DROP or INSERT. A statement that does not scan is a
// query, so that reading it reports the error.
func IsQuery(statement string) bool {
	s := scanner{input: statement}
	var lx lexeme
	err := s.scan(&lx)
	return err != nil || lx.kind != tokKeyword || lx.text != "CREATE" && lx.text != "DROP" && lx.text != "INSERT"
}
