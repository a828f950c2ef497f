package types

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// This file implements the string and conversion operations of the SQL
// surface: || concatenation, LIKE pattern matching, the scalar functions
// upper/lower/length/substr, and CAST. All of them propagate SQL NULL and
// report PostgreSQL-style errors for invalid inputs; static kind errors are
// raised earlier, by the semantic analyzer in internal/sql.

// Concat is the SQL || operator: NULL-propagating string concatenation.
func Concat(a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null(), nil
	}
	if a.kind != KindString || b.kind != KindString {
		return Null(), fmt.Errorf("types: operator does not exist: %s || %s", a.Kind(), b.Kind())
	}
	return NewString(a.s + b.s), nil
}

// Like evaluates "s LIKE pattern" under three-valued logic: NULL operands
// yield Unknown. The pattern language is SQL's: '%' matches any (possibly
// empty) substring, '_' matches exactly one character, everything else
// matches itself.
func Like(s, pattern Value) (TriBool, error) {
	if s.IsNull() || pattern.IsNull() {
		return Unknown, nil
	}
	if s.kind != KindString || pattern.kind != KindString {
		return Unknown, fmt.Errorf("types: operator does not exist: %s LIKE %s", s.Kind(), pattern.Kind())
	}
	return TriOf(likeMatch([]rune(s.s), []rune(pattern.s))), nil
}

// likeMatch matches the whole string against the whole pattern with greedy
// '%' handling and a single backtrack point per '%' — O(len(s)·len(pat)),
// never the exponential blowup of naive recursion on patterns with many
// wildcards.
func likeMatch(s, pat []rune) bool {
	si, pi := 0, 0
	star, anchor := -1, 0 // last '%' position in pat, and the s index it is matched at
	for si < len(s) {
		switch {
		case pi < len(pat) && (pat[pi] == '_' || pat[pi] == s[si]):
			si++
			pi++
		case pi < len(pat) && pat[pi] == '%':
			star, anchor = pi, si
			pi++
		case star >= 0:
			// Mismatch after a '%': widen what the '%' swallows by one and
			// retry from just past it.
			anchor++
			si, pi = anchor, star+1
		default:
			return false
		}
	}
	for pi < len(pat) && pat[pi] == '%' {
		pi++
	}
	return pi == len(pat)
}

// Upper is upper(string).
func Upper(v Value) (Value, error) {
	if v.IsNull() {
		return Null(), nil
	}
	if v.kind != KindString {
		return Null(), fmt.Errorf("types: function upper(%s) does not exist", v.Kind())
	}
	return NewString(strings.ToUpper(v.s)), nil
}

// Lower is lower(string).
func Lower(v Value) (Value, error) {
	if v.IsNull() {
		return Null(), nil
	}
	if v.kind != KindString {
		return Null(), fmt.Errorf("types: function lower(%s) does not exist", v.Kind())
	}
	return NewString(strings.ToLower(v.s)), nil
}

// Length is length(string): the character (rune) count.
func Length(v Value) (Value, error) {
	if v.IsNull() {
		return Null(), nil
	}
	if v.kind != KindString {
		return Null(), fmt.Errorf("types: function length(%s) does not exist", v.Kind())
	}
	return NewInt(int64(len([]rune(v.s)))), nil
}

// Substr is substr(string, from [, count]) with PostgreSQL semantics:
// positions are 1-based, a start before the string clips against it
// (substr('abc', 0, 2) = 'a'), and a negative count is an error.
func Substr(s, from Value, count *Value) (Value, error) {
	if s.IsNull() || from.IsNull() || (count != nil && count.IsNull()) {
		return Null(), nil
	}
	if s.kind != KindString || from.kind != KindInt || (count != nil && count.kind != KindInt) {
		return Null(), fmt.Errorf("types: function substr(%s, …) requires (string, integer [, integer])", s.Kind())
	}
	runes := []rune(s.s)
	start := from.asInt()
	end := int64(len(runes)) + 1 // exclusive, 1-based
	if count != nil {
		if count.asInt() < 0 {
			return Null(), fmt.Errorf("types: negative substring length not allowed")
		}
		if e, err := AddInt64(start, count.asInt()); err == nil {
			end = e
		} else {
			end = math.MaxInt64 // saturate; clamped to the string below
		}
	}
	if start < 1 {
		start = 1
	}
	if end > int64(len(runes))+1 {
		end = int64(len(runes)) + 1
	}
	if start >= end {
		return NewString(""), nil
	}
	return NewString(string(runes[start-1 : end-1])), nil
}

// CanCast reports whether a CAST from one kind to another is defined. An
// unknown (null) source kind casts to anything; following PostgreSQL, the
// only rejected pair among the concrete kinds is float↔boolean.
func CanCast(from, to Kind) bool {
	if from == KindNull {
		return true
	}
	if from == to {
		return true
	}
	if (from == KindFloat && to == KindBool) || (from == KindBool && to == KindFloat) {
		return false
	}
	return true
}

// Cast converts a value to the target kind, following PostgreSQL: NULL casts
// to NULL, numeric↔numeric rounds (raising "bigint out of range" when the
// float exceeds int64), anything casts to string via its canonical text, and
// string→X parses the text (raising "invalid input syntax" otherwise).
func Cast(v Value, to Kind) (Value, error) {
	if v.IsNull() {
		return Null(), nil
	}
	if v.kind == to {
		return v, nil
	}
	switch to {
	case KindString:
		return NewString(v.String()), nil
	case KindInt:
		switch v.kind {
		case KindFloat:
			f := math.RoundToEven(v.asFloat())
			if math.IsNaN(f) || f < math.MinInt64 || f >= math.MaxInt64 {
				return Null(), ErrNumericOutOfRange
			}
			return NewInt(int64(f)), nil
		case KindBool:
			if v.asBool() {
				return NewInt(1), nil
			}
			return NewInt(0), nil
		case KindString:
			i, err := strconv.ParseInt(strings.TrimSpace(v.s), 10, 64)
			if err != nil {
				return Null(), fmt.Errorf("types: invalid input syntax for type integer: %q", v.s)
			}
			return NewInt(i), nil
		}
	case KindFloat:
		switch v.kind {
		case KindInt:
			return NewFloat(float64(v.asInt())), nil
		case KindString:
			f, err := strconv.ParseFloat(strings.TrimSpace(v.s), 64)
			if err != nil {
				return Null(), fmt.Errorf("types: invalid input syntax for type float: %q", v.s)
			}
			return NewFloat(f), nil
		}
	case KindBool:
		switch v.kind {
		case KindInt:
			return NewBool(v.asInt() != 0), nil
		case KindString:
			switch strings.ToLower(strings.TrimSpace(v.s)) {
			case "t", "true", "yes", "on", "1":
				return NewBool(true), nil
			case "f", "false", "no", "off", "0":
				return NewBool(false), nil
			}
			return Null(), fmt.Errorf("types: invalid input syntax for type boolean: %q", v.s)
		}
	}
	return Null(), fmt.Errorf("types: cannot cast type %s to %s", v.Kind(), to)
}
