package code

import (
	"strings"
	"testing"

	"nwdec/internal/nwerr"
)

func TestTypeStringAndReflected(t *testing.T) {
	cases := []struct {
		tp        Type
		name      string
		reflected bool
	}{
		{TypeTree, "TC", true},
		{TypeGray, "GC", true},
		{TypeBalancedGray, "BGC", true},
		{TypeHot, "HC", false},
		{TypeArrangedHot, "AHC", false},
	}
	for _, c := range cases {
		if c.tp.String() != c.name {
			t.Errorf("String(%v) = %s, want %s", int(c.tp), c.tp, c.name)
		}
		if c.tp.Reflected() != c.reflected {
			t.Errorf("%s Reflected = %v", c.name, c.tp.Reflected())
		}
	}
	if !strings.HasPrefix(Type(99).String(), "Type(") {
		t.Error("unknown type String format")
	}
}

func TestParseType(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Type
	}{
		{"tc", TypeTree}, {"TC", TypeTree}, {"tree", TypeTree},
		{"gc", TypeGray}, {"gray", TypeGray},
		{"bgc", TypeBalancedGray}, {" balanced-gray ", TypeBalancedGray},
		{"hc", TypeHot}, {"hot", TypeHot},
		{"ahc", TypeArrangedHot}, {"arranged", TypeArrangedHot},
	} {
		got, err := ParseType(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseType(%q) = %v, %v", c.in, got, err)
		}
	}
	if _, err := ParseType("nope"); !nwerr.IsInvalid(err) {
		t.Errorf("ParseType(\"nope\") error = %v, want an Invalid-class error", err)
	}
}

func TestNewDispatch(t *testing.T) {
	for _, tp := range AllTypes() {
		length := 8
		g, err := New(tp, 2, length)
		if err != nil {
			t.Fatalf("New(%v): %v", tp, err)
		}
		if g.Type() != tp || g.Base() != 2 || g.Length() != length {
			t.Errorf("%v: wrong identity %v/%d/%d", tp, g.Type(), g.Base(), g.Length())
		}
		words, err := g.Sequence(4)
		if err != nil {
			t.Fatalf("%v Sequence: %v", tp, err)
		}
		if err := Validate(words, 2, length); err != nil {
			t.Errorf("%v: %v", tp, err)
		}
	}
	if _, err := New(Type(42), 2, 8); err == nil {
		t.Error("unknown type accepted")
	}
}

func TestCyclicSequenceWraps(t *testing.T) {
	h, _ := NewHot(2, 4) // space size 6
	words, err := CyclicSequence(h, 15)
	if err != nil {
		t.Fatal(err)
	}
	if len(words) != 15 {
		t.Fatalf("len = %d", len(words))
	}
	for i := 0; i < 15; i++ {
		if !words[i].Equal(words[i%6]) {
			t.Errorf("word %d does not equal word %d", i, i%6)
		}
	}
}

func TestCyclicSequenceShortPassThrough(t *testing.T) {
	g, _ := NewGray(2, 6)
	direct, _ := g.Sequence(5)
	cyc, err := CyclicSequence(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range direct {
		if !direct[i].Equal(cyc[i]) {
			t.Error("cyclic short sequence differs from direct")
		}
	}
}

func TestPow(t *testing.T) {
	if pow(3, 4) != 81 || pow(2, 0) != 1 || pow(10, 1) != 10 {
		t.Error("pow wrong")
	}
	if pow(2, 200) != int(^uint(0)>>1) {
		t.Error("pow should saturate at MaxInt")
	}
}

func TestStatsAndMetrics(t *testing.T) {
	words := []Word{
		FromDigits(0, 0), FromDigits(0, 1), FromDigits(1, 1), FromDigits(1, 0),
	}
	s := Stats(words)
	if s.Words != 4 || s.Length != 2 || s.TotalTransitions != 3 {
		t.Errorf("Stats = %+v", s)
	}
	if s.MaxPerStep != 1 || s.MinPerStep != 1 {
		t.Errorf("per-step bounds wrong: %+v", s)
	}
	if s.PerDigit[0] != 1 || s.PerDigit[1] != 2 || s.MaxPerDigit != 2 {
		t.Errorf("per-digit counts wrong: %+v", s)
	}
	if !Distinct(words) {
		t.Error("distinct words reported duplicated")
	}
	if Distinct(append(words, FromDigits(0, 0))) {
		t.Error("duplicate not detected")
	}
	empty := Stats(nil)
	if empty.Words != 0 || empty.TotalTransitions != 0 {
		t.Error("empty stats wrong")
	}
}

func TestValidateErrors(t *testing.T) {
	if err := Validate([]Word{FromDigits(0, 1), FromDigits(0)}, 2, 2); err == nil {
		t.Error("ragged length accepted")
	}
	if err := Validate([]Word{FromDigits(0, 5)}, 2, 2); err == nil {
		t.Error("digit out of base accepted")
	}
	if err := Validate([]Word{FromDigits(0, 1), FromDigits(0, 1)}, 2, 2); err == nil {
		t.Error("duplicate accepted")
	}
}
