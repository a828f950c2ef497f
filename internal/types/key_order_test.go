package types_test

import (
	"bytes"
	"cmp"
	"math"
	"slices"
	"strings"
	"testing"

	"perm/internal/rel"
	"perm/internal/types"
)

// keyGrid covers every kind, both ends of the integer range, the float
// values that encode as integers (1.0, -0.0) and those that do not (-0.5,
// 1.5, ±Inf, and NaN with two payloads), and strings that differ in length
// or in content. math.NaN() has the payload bits 0x7ff8000000000001, so the
// second NaN is otherNaN.
var keyGrid = []types.Value{
	types.Null(), types.NewBool(false), types.NewBool(true),
	types.NewInt(math.MinInt64), types.NewInt(-1), types.NewInt(0), types.NewInt(1), types.NewInt(math.MaxInt64),
	types.NewFloat(1.0), types.NewFloat(math.Copysign(0, -1)), types.NewFloat(-0.5), types.NewFloat(1.5),
	types.NewFloat(math.Inf(1)), types.NewFloat(math.Inf(-1)),
	types.NewFloat(math.NaN()), types.NewFloat(otherNaN),
	types.NewString(""), types.NewString("a"), types.NewString("ab"), types.NewString("b"),
}

// otherNaN is a NaN whose bits differ from math.NaN()'s.
var otherNaN = math.Float64frombits(0x7ff8000000000002)

// sign maps a comparison result to -1, 0 or +1.
func sign(c int) int { return cmp.Compare(c, 0) }

// TestCompareKeyMatchesKeyOrder checks that Value.CompareKey and
// rel.Tuple.Compare order values and tuples exactly as their key strings
// compare, over every pair of the grid and every pair of width-2 tuples
// built from it.
func TestCompareKeyMatchesKeyOrder(t *testing.T) {
	for _, a := range keyGrid {
		for _, b := range keyGrid {
			want := sign(strings.Compare(rel.Tuple{a}.Key(), rel.Tuple{b}.Key()))
			if got := sign(a.CompareKey(b)); got != want {
				t.Errorf("%v.CompareKey(%v) = %d, key order says %d", a, b, got, want)
			}
		}
	}
	for _, a0 := range keyGrid {
		for _, a1 := range keyGrid {
			a := rel.Tuple{a0, a1}
			for _, b0 := range keyGrid {
				for _, b1 := range keyGrid {
					b := rel.Tuple{b0, b1}
					if got, want := sign(a.Compare(b)), sign(strings.Compare(a.Key(), b.Key())); got != want {
						t.Fatalf("%v.Compare(%v) = %d, key order says %d", a, b, got, want)
					}
				}
			}
		}
	}
	if got := (rel.Tuple{types.NewInt(1)}).Compare(rel.Tuple{types.NewInt(1), types.Null()}); got != -1 {
		t.Errorf("a proper prefix compares %d, want -1", got)
	}
}

// TestKeyEqualityMatchesEq checks the promise hash joins, hashed ANY,
// GROUP BY and DISTINCT rely on: two values have the same key bytes iff
// they are =-equal (non-NULL values) and iff they are =n-equal (all
// values). Beside the key grid it covers floats just outside int64's range,
// whose truncation wraps.
func TestKeyEqualityMatchesEq(t *testing.T) {
	grid := append(slices.Clone(keyGrid), types.NewFloat(0x1p63), types.NewFloat(-0x1p63))
	for _, a := range grid {
		for _, b := range grid {
			keyEq := bytes.Equal(a.AppendKey(nil), b.AppendKey(nil))
			if !a.IsNull() && !b.IsNull() {
				if eq := types.CmpEq.Apply(a, b) == types.True; keyEq != eq {
					t.Errorf("%v (%s) and %v (%s): equal keys %v, = says %v", a, a.Kind(), b, b.Kind(), keyEq, eq)
				}
			}
			if eq := types.NullEq(a, b); keyEq != eq {
				t.Errorf("%v (%s) and %v (%s): equal keys %v, =n says %v", a, a.Kind(), b, b.Kind(), keyEq, eq)
			}
		}
	}
}

// TestCompareKeyLandmarks spells out the three ways the key order is not
// SQL's order, so that a comparator "fixed" towards SQL fails here by name.
func TestCompareKeyLandmarks(t *testing.T) {
	for _, c := range []struct {
		name string
		a, b types.Value
		want int
	}{
		// Integers are their two's complement read as unsigned.
		{"negative after positive", types.NewInt(-1), types.NewInt(1), 1},
		{"MinInt64 after MaxInt64", types.NewInt(math.MinInt64), types.NewInt(math.MaxInt64), 1},
		// Integral floats encode as integers: the grouping equivalence.
		{"1 equals 1.0", types.NewInt(1), types.NewFloat(1.0), 0},
		{"0 equals -0.0", types.NewInt(0), types.NewFloat(math.Copysign(0, -1)), 0},
		// Strings carry their length first.
		{"shorter string first", types.NewString("b"), types.NewString("ab"), -1},
	} {
		if got := sign(c.a.CompareKey(c.b)); got != c.want {
			t.Errorf("%s: %v.CompareKey(%v) = %d, want %d", c.name, c.a, c.b, got, c.want)
		}
	}
}

// TestBitwiseEqualityKeyFolds: == on Values compares payload bits, so 0.0
// and -0.0 differ under it, and so do two NaN payloads; the grouping key
// (AppendKey, CompareKey) still folds each pair into one value, as SQL's
// = does.
func TestBitwiseEqualityKeyFolds(t *testing.T) {
	for _, pair := range [][2]types.Value{
		{types.NewFloat(0), types.NewFloat(math.Copysign(0, -1))},
		{types.NewFloat(math.NaN()), types.NewFloat(otherNaN)},
	} {
		a, b := pair[0], pair[1]
		if a == b {
			t.Errorf("%v and %v (bits %#x, %#x) are == ", a, b, math.Float64bits(a.Float()), math.Float64bits(b.Float()))
		}
		if !bytes.Equal(a.AppendKey(nil), b.AppendKey(nil)) {
			t.Errorf("%v and %v have different keys", a, b)
		}
		if c := a.CompareKey(b); c != 0 {
			t.Errorf("%v.CompareKey(%v) = %d, want 0", a, b, c)
		}
	}
}
