package types

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestZeroValueIsNull(t *testing.T) {
	var v Value
	if !v.IsNull() {
		t.Fatalf("zero Value should be NULL, got kind %v", v.Kind())
	}
	if got := v.String(); got != "NULL" {
		t.Fatalf("NULL renders as %q", got)
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if got := NewInt(42).Int(); got != 42 {
		t.Errorf("Int roundtrip: %d", got)
	}
	if got := NewFloat(2.5).Float(); got != 2.5 {
		t.Errorf("Float roundtrip: %g", got)
	}
	if got := NewString("abc").Str(); got != "abc" {
		t.Errorf("Str roundtrip: %q", got)
	}
	if !NewBool(true).Bool() {
		t.Errorf("Bool roundtrip failed")
	}
	if NewInt(3).Float() != 3.0 {
		t.Errorf("Int should widen to float")
	}
	if NewFloat(3.7).Int() != 3 {
		t.Errorf("Float should truncate to int")
	}
}

// TestValueLayout pins Value at four words: a kind, one payload word that a
// bool, an int64 and a float64 share, and a string header. A fifth word (a
// field per kind) doubled the expression interpreter's machine code, which
// passes Values through its frame on every operand.
func TestValueLayout(t *testing.T) {
	if got := reflect.TypeOf(Value{}).Size(); got != 32 {
		t.Fatalf("Value is %d bytes, want 32", got)
	}
}

// TestPayloadRoundTrip checks that every bool, int64 and float64 comes back
// from the shared payload word bit for bit: the ends of the integer range,
// the sign of -0.0, both infinities and two distinct NaN payloads.
func TestPayloadRoundTrip(t *testing.T) {
	for _, b := range []bool{false, true} {
		if got := NewBool(b).Bool(); got != b {
			t.Errorf("NewBool(%v).Bool() = %v", b, got)
		}
	}
	for _, i := range []int64{math.MinInt64, -1, 0, 1, math.MaxInt64} {
		if got := NewInt(i).Int(); got != i {
			t.Errorf("NewInt(%d).Int() = %d", i, got)
		}
	}
	for _, bits := range []uint64{
		math.Float64bits(math.Copysign(0, -1)),
		math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1)),
		0x7ff8000000000001, 0x7ff8000000000002,
	} {
		if got := math.Float64bits(NewFloat(math.Float64frombits(bits)).Float()); got != bits {
			t.Errorf("float with bits %#x comes back as %#x", bits, got)
		}
	}
}

func TestAccessorPanicsOnWrongKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Str() on an int should panic")
		}
	}()
	_ = NewInt(1).Str()
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull: "null", KindBool: "boolean", KindInt: "integer",
		KindFloat: "float", KindString: "string",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestCompareNumericCoercion(t *testing.T) {
	cmp, ok := Compare(NewInt(2), NewFloat(2.0))
	if !ok || cmp != 0 {
		t.Errorf("2 = 2.0 expected, got cmp=%d ok=%v", cmp, ok)
	}
	cmp, ok = Compare(NewFloat(1.5), NewInt(2))
	if !ok || cmp != -1 {
		t.Errorf("1.5 < 2 expected, got cmp=%d ok=%v", cmp, ok)
	}
}

func TestCompareNullAndMismatch(t *testing.T) {
	if _, ok := Compare(Null(), NewInt(1)); ok {
		t.Error("NULL should be incomparable")
	}
	if _, ok := Compare(NewString("a"), NewInt(1)); ok {
		t.Error("string vs int should be incomparable")
	}
	if cmp, ok := Compare(NewBool(false), NewBool(true)); !ok || cmp >= 0 {
		t.Errorf("false < true expected, got %d %v", cmp, ok)
	}
}

func TestCmpOpApplyThreeValued(t *testing.T) {
	if got := CmpEq.Apply(NewInt(1), Null()); got != Unknown {
		t.Errorf("1 = NULL should be Unknown, got %v", got)
	}
	if got := CmpLt.Apply(NewInt(1), NewInt(2)); got != True {
		t.Errorf("1 < 2 should be True, got %v", got)
	}
	if got := CmpGe.Apply(NewString("b"), NewString("c")); got != False {
		t.Errorf("b >= c should be False, got %v", got)
	}
}

func TestCmpOpNegate(t *testing.T) {
	ops := []CmpOp{CmpEq, CmpNe, CmpLt, CmpLe, CmpGt, CmpGe}
	vals := []Value{NewInt(1), NewInt(2), NewInt(3)}
	for _, op := range ops {
		neg := op.Negate()
		for _, a := range vals {
			for _, b := range vals {
				if op.Apply(a, b) == neg.Apply(a, b) {
					t.Errorf("%s and %s agree on (%v,%v)", op, neg, a, b)
				}
			}
		}
		if op.Negate().Negate() != op {
			t.Errorf("double negation of %s is %s", op, op.Negate().Negate())
		}
	}
}

func TestTriBoolTables(t *testing.T) {
	vals := []TriBool{False, True, Unknown}
	// Kleene logic truth tables.
	wantAnd := [3][3]TriBool{
		{False, False, False},
		{False, True, Unknown},
		{False, Unknown, Unknown},
	}
	wantOr := [3][3]TriBool{
		{False, True, Unknown},
		{True, True, True},
		{Unknown, True, Unknown},
	}
	for i, a := range vals {
		for j, b := range vals {
			if got := a.And(b); got != wantAnd[i][j] {
				t.Errorf("%v AND %v = %v, want %v", a, b, got, wantAnd[i][j])
			}
			if got := a.Or(b); got != wantOr[i][j] {
				t.Errorf("%v OR %v = %v, want %v", a, b, got, wantOr[i][j])
			}
		}
	}
	if False.Not() != True || True.Not() != False || Unknown.Not() != Unknown {
		t.Error("three-valued NOT broken")
	}
}

func TestNullEq(t *testing.T) {
	if !NullEq(Null(), Null()) {
		t.Error("NULL =n NULL must hold")
	}
	if NullEq(Null(), NewInt(0)) {
		t.Error("NULL =n 0 must not hold")
	}
	if !NullEq(NewInt(5), NewFloat(5)) {
		t.Error("5 =n 5.0 must hold")
	}
	if NullEq(NewString("a"), NewString("b")) {
		t.Error("a =n b must not hold")
	}
}

func TestArithNullPropagationAndPromotion(t *testing.T) {
	v, err := OpAdd.Apply(Null(), NewInt(1))
	if err != nil || !v.IsNull() {
		t.Errorf("NULL + 1 = %v, %v", v, err)
	}
	v, err = OpMul.Apply(NewInt(6), NewInt(7))
	if err != nil || v.Kind() != KindInt || v.Int() != 42 {
		t.Errorf("6*7 = %v, %v", v, err)
	}
	v, err = OpAdd.Apply(NewInt(1), NewFloat(0.5))
	if err != nil || v.Kind() != KindFloat || v.Float() != 1.5 {
		t.Errorf("1 + 0.5 = %v, %v", v, err)
	}
	v, err = OpDiv.Apply(NewInt(7), NewInt(2))
	if err != nil || v.Int() != 3 {
		t.Errorf("7/2 = %v, %v (integer division expected)", v, err)
	}
	if _, err = OpDiv.Apply(NewInt(1), NewInt(0)); !errors.Is(err, ErrDivisionByZero) {
		t.Errorf("1/0 should be a division-by-zero error, got %v", err)
	}
	if _, err = OpAdd.Apply(NewString("x"), NewInt(1)); err == nil {
		t.Error("string + int should error")
	}
}

func TestAppendKeySelfDelimiting(t *testing.T) {
	// Distinct values must produce distinct keys; NullEq-equal values the
	// same key.
	vals := []Value{
		Null(), NewBool(true), NewBool(false), NewInt(0), NewInt(1),
		NewInt(-1), NewFloat(0.5), NewString(""), NewString("a"),
		NewString("ab"), NewString("b"),
	}
	for i, a := range vals {
		for j, b := range vals {
			ka := a.AppendKey(nil)
			kb := b.AppendKey(nil)
			if (i == j) != bytes.Equal(ka, kb) {
				t.Errorf("key collision/mismatch between %v and %v", a, b)
			}
		}
	}
	// 1 and 1.0 must share a key, matching numeric comparison.
	if !bytes.Equal(NewInt(1).AppendKey(nil), NewFloat(1).AppendKey(nil)) {
		t.Error("1 and 1.0 should have the same key")
	}
}

func TestAppendKeyConcatenationUnambiguous(t *testing.T) {
	// ("a","bc") vs ("ab","c"): concatenated keys must differ because the
	// encoding is self-delimiting.
	k1 := NewString("a").AppendKey(nil)
	k1 = NewString("bc").AppendKey(k1)
	k2 := NewString("ab").AppendKey(nil)
	k2 = NewString("c").AppendKey(k2)
	if bytes.Equal(k1, k2) {
		t.Error("tuple key encoding is ambiguous under concatenation")
	}
}

func TestValueStringForms(t *testing.T) {
	cases := map[string]Value{
		"NULL":  Null(),
		"true":  NewBool(true),
		"false": NewBool(false),
		"-7":    NewInt(-7),
		"2.5":   NewFloat(2.5),
		"hi":    NewString("hi"),
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Errorf("%v.String() = %q, want %q", v.Kind(), got, want)
		}
	}
}

func TestTriBoolAndOpStrings(t *testing.T) {
	if False.String() != "false" || True.String() != "true" || Unknown.String() != "unknown" {
		t.Error("TriBool names wrong")
	}
	ops := map[CmpOp]string{CmpEq: "=", CmpNe: "<>", CmpLt: "<", CmpLe: "<=", CmpGt: ">", CmpGe: ">="}
	for op, want := range ops {
		if op.String() != want {
			t.Errorf("CmpOp %d = %q want %q", op, op.String(), want)
		}
	}
	ariths := map[ArithOp]string{OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%"}
	for op, want := range ariths {
		if op.String() != want {
			t.Errorf("ArithOp %d = %q want %q", op, op.String(), want)
		}
	}
}

func TestArithModAndErrors(t *testing.T) {
	v, err := OpMod.Apply(NewInt(7), NewInt(3))
	if err != nil || v.Int() != 1 {
		t.Errorf("7%%3 = %v, %v", v, err)
	}
	if _, err = OpMod.Apply(NewInt(7), NewInt(0)); !errors.Is(err, ErrDivisionByZero) {
		t.Errorf("mod by zero should be a division-by-zero error, got %v", err)
	}
	if _, err := OpMod.Apply(NewFloat(1.5), NewFloat(2)); err == nil {
		t.Error("float %% should error")
	}
	v, err = OpSub.Apply(NewFloat(1.5), NewInt(1))
	if err != nil || v.Float() != 0.5 {
		t.Errorf("1.5-1 = %v, %v", v, err)
	}
	if _, err = OpDiv.Apply(NewFloat(1), NewFloat(0)); !errors.Is(err, ErrDivisionByZero) {
		t.Errorf("float div by zero should be a division-by-zero error, got %v", err)
	}
}

func TestCmpOpApplyAllOps(t *testing.T) {
	a, b := NewInt(1), NewInt(2)
	if CmpNe.Apply(a, b) != True || CmpLe.Apply(a, a) != True ||
		CmpGt.Apply(b, a) != True || CmpGe.Apply(a, b) != False {
		t.Error("comparison table wrong")
	}
}

func TestCompareAntisymmetryProperty(t *testing.T) {
	f := func(a, b int64) bool {
		x, y := NewInt(a), NewInt(b)
		c1, ok1 := Compare(x, y)
		c2, ok2 := Compare(y, x)
		return ok1 && ok2 && c1 == -c2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFloatIntKeyCoherence(t *testing.T) {
	f := func(x int32) bool {
		a, b := NewInt(int64(x)), NewFloat(float64(x))
		return bytes.Equal(a.AppendKey(nil), b.AppendKey(nil)) && NullEq(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Non-integral floats keep a distinct key space.
	if bytes.Equal(NewFloat(1.5).AppendKey(nil), NewInt(1).AppendKey(nil)) {
		t.Error("1.5 must not collide with 1")
	}
	if bytes.Equal(NewFloat(math.Inf(1)).AppendKey(nil), NewFloat(math.Inf(-1)).AppendKey(nil)) {
		t.Error("+Inf and -Inf must not collide")
	}
}
