// Package sql implements the SQL front end of the Perm reproduction: a
// lexer, a recursive-descent parser, a semantic analyzer and a translator
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
// A statement is lexed once (Lex). From the tokens, Lift computes the
// statement's shape — the key of package perm's plan cache — and, when no
// cached plan answers it, Query or Statement parse them; after Lift the
// literals it lifted out parse as ParamLit nodes and translate to
// algebra.Param leaves.
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

// token is one lexeme with its source position (1-based byte offset).
type token struct {
	kind tokenKind
	// param is the one-based parameter slot of a literal that Lexed.Lift
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

// keywords of the dialect, each mapped to its own spelling so that a lookup
// yields the token text without allocating. SOME is an alias for ANY, as in
// SQL.
var keywords = func() map[string]string {
	m := map[string]string{}
	for _, kw := range []string{
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
	} {
		m[kw] = kw
	}
	return m
}()

// maxKeywordLen is the length of the longest keyword (PROVENANCE).
const maxKeywordLen = 10

// symbols holds the text of every one-byte symbol token.
const symbols = "=<>+-*/%(),.;"

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// isWordStart reports whether c can begin an identifier or keyword. Bytes
// above ASCII are read as Latin-1, as the lexer always has.
func isWordStart(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '_' ||
		c >= 0x80 && unicode.IsLetter(rune(c))
}

// word classifies input[start:end] as a keyword or an identifier and folds
// its case. Words that are ASCII — all of them, in practice — are folded
// without allocating: a keyword's text comes from the keyword table, and an
// identifier already in lower case is a slice of the input.
func word(input string, start, end int) token {
	w := input[start:end]
	ascii, lower := true, true
	for i := 0; i < len(w); i++ {
		c := w[i]
		ascii = ascii && c < 0x80
		lower = lower && !('A' <= c && c <= 'Z')
	}
	if !ascii {
		if kw, ok := keywords[strings.ToUpper(w)]; ok {
			return token{kind: tokKeyword, text: kw, pos: start + 1}
		}
		return token{kind: tokIdent, text: strings.ToLower(w), pos: start + 1}
	}
	if len(w) <= maxKeywordLen {
		var up [maxKeywordLen]byte
		for i := 0; i < len(w); i++ {
			c := w[i]
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			up[i] = c
		}
		if kw, ok := keywords[string(up[:len(w)])]; ok {
			return token{kind: tokKeyword, text: kw, pos: start + 1}
		}
	}
	if !lower {
		w = strings.ToLower(w)
	}
	return token{kind: tokIdent, text: w, pos: start + 1}
}

// lex tokenizes the input. Errors carry byte positions for messages.
func lex(input string) ([]token, error) {
	// SQL text runs to five or six bytes a token, blanks included.
	toks := make([]token, 0, len(input)/4+2)
	i := 0
	n := len(input)
	for i < n {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < n && input[i+1] == '-':
			for i < n && input[i] != '\n' {
				i++
			}
		case isWordStart(c):
			start := i
			for i < n && (isWordStart(input[i]) || isDigit(input[i])) {
				i++
			}
			toks = append(toks, word(input, start, i))
		case isDigit(c) || (c == '.' && i+1 < n && isDigit(input[i+1])):
			start := i
			seenDot := false
			for i < n && (isDigit(input[i]) || (input[i] == '.' && !seenDot)) {
				if input[i] == '.' {
					seenDot = true
				}
				i++
			}
			toks = append(toks, token{kind: tokNumber, text: input[start:i], pos: start + 1})
		case c == '\'':
			i++
			start := i
			escaped, closed := false, false
			for i < n {
				if input[i] == '\'' {
					if i+1 < n && input[i+1] == '\'' { // escaped quote
						escaped = true
						i += 2
						continue
					}
					closed = true
					break
				}
				i++
			}
			if !closed {
				return nil, fmt.Errorf("sql: unterminated string literal at position %d", i)
			}
			text := input[start:i]
			if escaped {
				text = strings.ReplaceAll(text, "''", "'")
			}
			i++
			toks = append(toks, token{kind: tokString, text: text, pos: i})
		default:
			start := i
			if i+1 < n {
				two := ""
				switch input[i : i+2] {
				case "<>", "!=":
					two = "<>"
				case "<=":
					two = "<="
				case ">=":
					two = ">="
				case "||":
					two = "||"
				}
				if two != "" {
					toks = append(toks, token{kind: tokSymbol, text: two, pos: start + 1})
					i += 2
					continue
				}
			}
			at := strings.IndexByte(symbols, c)
			if at < 0 {
				return nil, fmt.Errorf("sql: unexpected character %q at position %d", c, start+1)
			}
			toks = append(toks, token{kind: tokSymbol, text: symbols[at : at+1], pos: start + 1})
			i++
		}
	}
	toks = append(toks, token{kind: tokEOF, pos: n + 1})
	return toks, nil
}
