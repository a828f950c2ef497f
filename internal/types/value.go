// Package types implements the value domain of the Perm reproduction:
// SQL-style scalar values (integers, floats, strings, booleans and NULL)
// together with three-valued comparison logic and the null-aware equality
// operator =n used by the Gen rewrite strategy of Glavic & Alonso
// (EDBT 2009), where a =n b ⇔ a = b ∨ (a IS NULL ∧ b IS NULL).
package types

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the runtime type of a Value.
type Kind uint8

// The supported value kinds. KindNull is the zero value so that the zero
// Value is SQL NULL, which is the only sensible default for a database value.
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindBool:
		return "boolean"
	case KindInt:
		return "integer"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a single SQL scalar. The zero Value is NULL.
//
// A Value is 32 bytes: a kind, one 8-byte payload word n and a string
// header. A bool is stored in n as 0 or 1, an int64 as its bits and a
// float64 as math.Float64bits; only a string uses s. Values are passed by
// value through every slot, comparison and return of the engine, and the
// expression interpreter moves them through its frame: with a separate
// field per kind (40 bytes) its machine code was twice as large.
//
// Go's == on Values therefore compares kind and payload bits: 0.0 and -0.0
// differ, and a NaN equals a NaN with the same payload only. SQL equality
// is Compare and NullEq, and grouping equality is AppendKey and CompareKey,
// which fold both pairs into one value.
type Value struct {
	kind Kind
	n    uint64
	s    string
}

// Null returns the SQL NULL value.
func Null() Value { return Value{} }

// NewBool returns a boolean value.
func NewBool(b bool) Value {
	var n uint64
	if b {
		n = 1
	}
	return Value{kind: KindBool, n: n}
}

// NewInt returns an integer value.
func NewInt(i int64) Value { return Value{kind: KindInt, n: uint64(i)} }

// NewFloat returns a floating point value.
func NewFloat(f float64) Value { return Value{kind: KindFloat, n: math.Float64bits(f)} }

// NewString returns a string value.
func NewString(s string) Value { return Value{kind: KindString, s: s} }

// asBool, asInt and asFloat decode the payload word of a bool, an integer
// and a float; the caller has checked the kind.
func (v Value) asBool() bool     { return v.n != 0 }
func (v Value) asInt() int64     { return int64(v.n) }
func (v Value) asFloat() float64 { return math.Float64frombits(v.n) }

// Kind reports the runtime kind of the value.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Bool returns the boolean payload. It panics if the value is not a boolean;
// callers must check Kind first (the evaluator always does).
func (v Value) Bool() bool {
	if v.kind != KindBool {
		panic("types: Bool() on " + v.kind.String())
	}
	return v.asBool()
}

// Int returns the integer payload, converting from float if necessary.
func (v Value) Int() int64 {
	switch v.kind {
	case KindInt:
		return v.asInt()
	case KindFloat:
		return int64(v.asFloat())
	default:
		panic("types: Int() on " + v.kind.String())
	}
}

// Float returns the numeric payload as float64, converting from int if
// necessary.
func (v Value) Float() float64 {
	switch v.kind {
	case KindFloat:
		return v.asFloat()
	case KindInt:
		return float64(v.asInt())
	default:
		panic("types: Float() on " + v.kind.String())
	}
}

// Str returns the string payload. It panics on non-strings.
func (v Value) Str() string {
	if v.kind != KindString {
		panic("types: Str() on " + v.kind.String())
	}
	return v.s
}

// IsNumeric reports whether the value is an integer or float.
func (v Value) IsNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// String renders the value the way the CLI and test fixtures print tuples.
// NULL prints as "NULL" to match SQL conventions.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindBool:
		if v.asBool() {
			return "true"
		}
		return "false"
	case KindInt:
		return strconv.FormatInt(v.asInt(), 10)
	case KindFloat:
		return strconv.FormatFloat(v.asFloat(), 'g', -1, 64)
	case KindString:
		return v.s
	default:
		return "?"
	}
}

// AppendKey appends a self-delimiting encoding of the value to buf. Two
// values encode to the same bytes iff NullEq considers them equal, which is
// exactly the grouping and duplicate-elimination equivalence the engine
// needs (SQL GROUP BY and DISTINCT treat NULLs as equal, matching =n).
func (v Value) AppendKey(buf []byte) []byte {
	switch v.kind {
	case KindNull:
		return append(buf, 'n')
	case KindBool:
		return append(buf, 'b', byte(v.n))
	case KindInt:
		buf = append(buf, 'i')
		return appendUint64(buf, v.n)
	case KindFloat:
		if integralKey(v.asFloat()) {
			buf = append(buf, 'i')
			return appendUint64(buf, uint64(int64(v.asFloat())))
		}
		buf = append(buf, 'f')
		return appendUint64(buf, floatKeyBits(v.asFloat()))
	case KindString:
		buf = append(buf, 's')
		buf = appendUint64(buf, uint64(len(v.s)))
		return append(buf, v.s...)
	default:
		panic("types: AppendKey on unknown kind")
	}
}

// CompareKey orders v and o exactly as bytes.Compare orders their AppendKey
// encodings — -1, 0 or +1 — without building them. It is a total order,
// not SQL's: kinds order by tag (bool, non-integral float, integer and
// integral float, NULL, string), integers as their two's complement read
// unsigned (so negatives follow positives, and 1 equals 1.0), non-integral
// floats by their IEEE bits, strings by length first.
func (v Value) CompareKey(o Value) int {
	vt, vw := v.keyHead()
	ot, ow := o.keyHead()
	if c := cmp.Compare(vt, ot); c != 0 {
		return c
	}
	if c := cmp.Compare(vw, ow); c != 0 {
		return c
	}
	if v.kind == KindString {
		return strings.Compare(v.s, o.s)
	}
	return 0
}

// keyHead is what CompareKey compares of v's AppendKey encoding: the tag
// byte and the fixed-width word after it — a bool's 0 or 1, an integer's
// bits, a non-integral float's bits, a string's length.
func (v Value) keyHead() (tag byte, word uint64) {
	switch v.kind {
	case KindNull:
		return 'n', 0
	case KindBool:
		return 'b', v.n
	case KindInt:
		return 'i', v.n
	case KindFloat:
		if integralKey(v.asFloat()) {
			return 'i', uint64(int64(v.asFloat()))
		}
		return 'f', floatKeyBits(v.asFloat())
	case KindString:
		return 's', uint64(len(v.s))
	default:
		panic("types: CompareKey on unknown kind")
	}
}

// integralKey reports whether a float encodes as its integer counterpart,
// so that 1 and 1.0 group together, matching Compare's numeric coercion:
// exactly the integral floats in int64's range [-2^63, 2^63).
func integralKey(f float64) bool {
	return f == math.Trunc(f) && f >= math.MinInt64 && f < 0x1p63
}

// canonicalNaN is the one encoding of every NaN, which Compare treats as a
// single value.
var canonicalNaN = math.Float64bits(math.NaN())

// floatKeyBits is the key word of a non-integral float: its IEEE bits, with
// every NaN payload folded to one.
func floatKeyBits(f float64) uint64 {
	if math.IsNaN(f) {
		return canonicalNaN
	}
	return math.Float64bits(f)
}

func appendUint64(buf []byte, u uint64) []byte {
	return append(buf,
		byte(u>>56), byte(u>>48), byte(u>>40), byte(u>>32),
		byte(u>>24), byte(u>>16), byte(u>>8), byte(u))
}
