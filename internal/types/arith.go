package types

import (
	"errors"
	"fmt"
	"math"
)

// ArithOp is a binary arithmetic operator usable in projection and selection
// expressions (the paper's "expressions over attributes, constants and
// functions").
type ArithOp uint8

// The arithmetic operators.
const (
	OpAdd ArithOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
)

// String returns the SQL spelling of the operator.
func (op ArithOp) String() string {
	switch op {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpMod:
		return "%"
	default:
		return fmt.Sprintf("arith(%d)", uint8(op))
	}
}

// ErrDivisionByZero is returned for x/0 and x%0, matching PostgreSQL (which
// raises "division by zero" rather than producing NULL).
var ErrDivisionByZero = errors.New("types: division by zero")

// ErrNumericOutOfRange is returned when int64 arithmetic (including sum)
// overflows, matching PostgreSQL's "bigint out of range" error instead of
// silently wrapping around.
var ErrNumericOutOfRange = errors.New("types: bigint out of range")

// AddInt64 is checked int64 addition: it returns ErrNumericOutOfRange
// instead of wrapping. The sum aggregate accumulates through it.
func AddInt64(x, y int64) (int64, error) {
	z := x + y
	// Overflow iff the operands share a sign the result does not.
	if (x > 0 && y > 0 && z < 0) || (x < 0 && y < 0 && z >= 0) {
		return 0, ErrNumericOutOfRange
	}
	return z, nil
}

// SubInt64 is checked int64 subtraction.
func SubInt64(x, y int64) (int64, error) {
	z := x - y
	if (x >= 0 && y < 0 && z < 0) || (x < 0 && y > 0 && z >= 0) {
		return 0, ErrNumericOutOfRange
	}
	return z, nil
}

// MulInt64 is checked int64 multiplication.
func MulInt64(x, y int64) (int64, error) {
	if x == 0 || y == 0 {
		return 0, nil
	}
	z := x * y
	if z/y != x || (x == -1 && y == math.MinInt64) || (y == -1 && x == math.MinInt64) {
		return 0, ErrNumericOutOfRange
	}
	return z, nil
}

// Apply evaluates a op b with SQL NULL propagation: any NULL operand yields
// NULL. Integer pairs stay integral; mixed pairs promote to float. Division
// or modulus by zero is an error (ErrDivisionByZero), and int64 overflow is
// an error (ErrNumericOutOfRange), as in PostgreSQL.
func (op ArithOp) Apply(a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null(), nil
	}
	if !a.IsNumeric() || !b.IsNumeric() {
		return Null(), fmt.Errorf("types: %s requires numeric operands, got %s and %s", op, a.Kind(), b.Kind())
	}
	if a.kind == KindInt && b.kind == KindInt {
		x, y := a.asInt(), b.asInt()
		switch op {
		case OpAdd:
			z, err := AddInt64(x, y)
			return NewInt(z), err
		case OpSub:
			z, err := SubInt64(x, y)
			return NewInt(z), err
		case OpMul:
			z, err := MulInt64(x, y)
			return NewInt(z), err
		case OpDiv:
			if y == 0 {
				return Null(), ErrDivisionByZero
			}
			if x == math.MinInt64 && y == -1 {
				return Null(), ErrNumericOutOfRange
			}
			// Integer division over integers, matching SQL.
			return NewInt(x / y), nil
		case OpMod:
			if y == 0 {
				return Null(), ErrDivisionByZero
			}
			return NewInt(x % y), nil
		}
	}
	x, y := a.Float(), b.Float()
	switch op {
	case OpAdd:
		return NewFloat(x + y), nil
	case OpSub:
		return NewFloat(x - y), nil
	case OpMul:
		return NewFloat(x * y), nil
	case OpDiv:
		if y == 0 {
			return Null(), ErrDivisionByZero
		}
		return NewFloat(x / y), nil
	case OpMod:
		return Null(), fmt.Errorf("types: %% requires integer operands")
	}
	return Null(), fmt.Errorf("types: unknown arithmetic operator %d", op)
}
