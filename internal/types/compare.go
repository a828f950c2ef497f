package types

import (
	"cmp"
	"fmt"
	"math"
)

// TriBool is SQL three-valued logic: comparisons over NULL yield Unknown,
// and a WHERE clause keeps a tuple only when its condition is True.
type TriBool uint8

// The three truth values.
const (
	False TriBool = iota
	True
	Unknown
)

// String implements fmt.Stringer.
func (t TriBool) String() string {
	switch t {
	case False:
		return "false"
	case True:
		return "true"
	default:
		return "unknown"
	}
}

// TriOf lifts a Go bool into TriBool.
func TriOf(b bool) TriBool {
	if b {
		return True
	}
	return False
}

// And is three-valued conjunction.
func (t TriBool) And(o TriBool) TriBool {
	if t == False || o == False {
		return False
	}
	if t == True && o == True {
		return True
	}
	return Unknown
}

// Or is three-valued disjunction.
func (t TriBool) Or(o TriBool) TriBool {
	if t == True || o == True {
		return True
	}
	if t == False && o == False {
		return False
	}
	return Unknown
}

// Not is three-valued negation.
func (t TriBool) Not() TriBool {
	switch t {
	case False:
		return True
	case True:
		return False
	default:
		return Unknown
	}
}

// CmpOp is a comparison operator appearing in conditions and as the "op" of
// ANY/ALL sublinks.
type CmpOp uint8

// The comparison operators of the algebra.
const (
	CmpEq CmpOp = iota
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

// String returns the SQL spelling of the operator.
func (op CmpOp) String() string {
	switch op {
	case CmpEq:
		return "="
	case CmpNe:
		return "<>"
	case CmpLt:
		return "<"
	case CmpLe:
		return "<="
	case CmpGt:
		return ">"
	case CmpGe:
		return ">="
	default:
		return fmt.Sprintf("cmp(%d)", uint8(op))
	}
}

// Negate returns the complementary operator (¬(a op b) ⇔ a op.Negate() b for
// non-NULL operands). Used by the rewriter to express ¬Csub′.
func (op CmpOp) Negate() CmpOp {
	switch op {
	case CmpEq:
		return CmpNe
	case CmpNe:
		return CmpEq
	case CmpLt:
		return CmpGe
	case CmpLe:
		return CmpGt
	case CmpGt:
		return CmpLe
	case CmpGe:
		return CmpLt
	default:
		panic("types: Negate on unknown CmpOp")
	}
}

// Compare orders two non-NULL values: -1, 0 or +1. Numeric values compare
// numerically across int/float, exactly (an integer is never rounded to a
// float), and NaN follows PostgreSQL: it equals only NaN and sorts above
// every other number. Strings and booleans compare within their kind. ok is
// false when either side is NULL or the kinds are incomparable.
func Compare(a, b Value) (c int, ok bool) {
	if a.kind == KindNull || b.kind == KindNull {
		return 0, false
	}
	if a.IsNumeric() && b.IsNumeric() {
		switch {
		case a.kind == KindInt && b.kind == KindInt:
			return cmp.Compare(a.asInt(), b.asInt()), true
		case a.kind == KindFloat && b.kind == KindFloat:
			return compareFloats(a.asFloat(), b.asFloat()), true
		case a.kind == KindInt:
			return compareIntFloat(a.asInt(), b.asFloat()), true
		default:
			return -compareIntFloat(b.asInt(), a.asFloat()), true
		}
	}
	if a.kind != b.kind {
		return 0, false
	}
	switch a.kind {
	case KindString:
		switch {
		case a.s < b.s:
			return -1, true
		case a.s > b.s:
			return 1, true
		default:
			return 0, true
		}
	case KindBool:
		ai, bi := b2i(a.asBool()), b2i(b.asBool())
		return ai - bi, true
	default:
		return 0, false
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// compareFloats orders two floats with NaN equal to NaN and above every
// other value.
func compareFloats(a, b float64) int {
	if an, bn := math.IsNaN(a), math.IsNaN(b); an || bn {
		return b2i(an) - b2i(bn)
	}
	return cmp.Compare(a, b)
}

// compareIntFloat orders an integer against a float without rounding the
// integer: every float in [-2^63, 2^63) truncates to an int64 exactly.
func compareIntFloat(i int64, f float64) int {
	switch {
	case math.IsNaN(f) || f >= 0x1p63:
		return -1
	case f < -0x1p63:
		return 1
	}
	t := math.Trunc(f)
	if c := cmp.Compare(i, int64(t)); c != 0 {
		return c
	}
	return cmp.Compare(t, f) // the fraction of f decides
}

// Apply evaluates a op b under three-valued logic: Unknown when either side
// is NULL or the values are incomparable.
func (op CmpOp) Apply(a, b Value) TriBool {
	cmp, ok := Compare(a, b)
	if !ok {
		return Unknown
	}
	switch op {
	case CmpEq:
		return TriOf(cmp == 0)
	case CmpNe:
		return TriOf(cmp != 0)
	case CmpLt:
		return TriOf(cmp < 0)
	case CmpLe:
		return TriOf(cmp <= 0)
	case CmpGt:
		return TriOf(cmp > 0)
	case CmpGe:
		return TriOf(cmp >= 0)
	default:
		return Unknown
	}
}

// NullEq is the paper's =n operator: a =n b ⇔ a = b ∨ (a IS NULL ∧ b IS NULL).
// Unlike Apply(CmpEq, …) it is two-valued; the Gen strategy relies on it to
// join CrossBase tuples against rewritten sublink output that may be NULL.
func NullEq(a, b Value) bool {
	if a.kind == KindNull && b.kind == KindNull {
		return true
	}
	cmp, ok := Compare(a, b)
	return ok && cmp == 0
}
