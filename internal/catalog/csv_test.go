package catalog

import (
	"strings"
	"testing"

	"perm/internal/rel"
	"perm/internal/types"
)

func TestCSVRoundTrip(t *testing.T) {
	in := "a,b,c,d\n1,2.5,hello,true\nNULL,,x,false\n"
	r, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if r.Card() != 2 || r.Schema.Len() != 4 {
		t.Fatalf("parsed %s", r)
	}
	want := rel.Tuple{types.NewInt(1), types.NewFloat(2.5), types.NewString("hello"), types.NewBool(true)}
	if r.Count(want) != 1 {
		t.Errorf("typed row missing: %s", r)
	}
	nullRow := rel.Tuple{types.Null(), types.Null(), types.NewString("x"), types.NewBool(false)}
	if r.Count(nullRow) != 1 {
		t.Errorf("null row missing: %s", r)
	}
	var sb strings.Builder
	if err := WriteCSV(&sb, r); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(r) {
		t.Errorf("round trip lost data:\n%s\nvs\n%s", r, back)
	}
}

func TestCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Error("empty input should fail on header")
	}
	if _, err := ReadCSV(strings.NewReader("a,b\n1\n")); err == nil {
		t.Error("ragged row should fail")
	}
}

func TestParseValue(t *testing.T) {
	cases := map[string]types.Value{
		"42":    types.NewInt(42),
		"-7":    types.NewInt(-7),
		"3.14":  types.NewFloat(3.14),
		"TRUE":  types.NewBool(true),
		"False": types.NewBool(false),
		"null":  types.Null(),
		"":      types.Null(),
		"text":  types.NewString("text"),
	}
	for in, want := range cases {
		got := ParseValue(in)
		if got.Kind() != want.Kind() || (!got.IsNull() && !types.NullEq(got, want)) {
			t.Errorf("ParseValue(%q) = %v, want %v", in, got, want)
		}
	}
}
