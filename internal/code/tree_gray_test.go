package code

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestTreeSequenceBinary(t *testing.T) {
	tc, err := NewTree(2, 6)
	if err != nil {
		t.Fatal(err)
	}
	if tc.SpaceSize() != 8 {
		t.Fatalf("SpaceSize = %d, want 8", tc.SpaceSize())
	}
	words, err := tc.Sequence(4)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"000111", "001110", "010101", "011100"}
	for i, w := range words {
		if w.String() != want[i] {
			t.Errorf("word %d = %s, want %s", i, w, want[i])
		}
	}
}

func TestTreeSequenceTernaryPaperWords(t *testing.T) {
	// Paper Example 1 uses words 0121, 0220, 1012 — indices 1, 2, 3 of the
	// ternary tree code with M = 4.
	tc, err := NewTree(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	words, err := tc.Sequence(4)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"0022", "0121", "0220", "1012"}
	for i, w := range words {
		if w.String() != want[i] {
			t.Errorf("word %d = %s, want %s", i, w, want[i])
		}
	}
}

func TestTreeIndexOfRoundTrip(t *testing.T) {
	tc, _ := NewTree(3, 8)
	words, err := tc.Sequence(50)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range words {
		idx, err := tc.IndexOf(w)
		if err != nil || idx != i {
			t.Errorf("IndexOf(word %d) = %d, %v", i, idx, err)
		}
	}
}

func TestTreeIndexOfRejects(t *testing.T) {
	tc, _ := NewTree(3, 4)
	if _, err := tc.IndexOf(FromDigits(0, 1)); err == nil {
		t.Error("short word accepted")
	}
	if _, err := tc.IndexOf(FromDigits(0, 1, 2, 2)); err == nil {
		t.Error("non-reflected word accepted")
	}
}

func TestTreeValidation(t *testing.T) {
	if _, err := NewTree(1, 4); err == nil {
		t.Error("base 1 accepted")
	}
	if _, err := NewTree(2, 5); err == nil {
		t.Error("odd length accepted")
	}
	tc, _ := NewTree(2, 4)
	if _, err := tc.Sequence(5); !errors.Is(err, ErrCountExceedsSpace) {
		t.Error("oversize request not rejected with ErrCountExceedsSpace")
	}
	if _, err := tc.Sequence(-1); err == nil {
		t.Error("negative count accepted")
	}
}

func TestGraySequenceIsGray(t *testing.T) {
	for _, base := range []int{2, 3, 4} {
		for _, m := range []int{4, 6, 8} {
			g, err := NewGray(base, m)
			if err != nil {
				t.Fatal(err)
			}
			full, err := g.Sequence(g.SpaceSize())
			if err != nil {
				t.Fatal(err)
			}
			if err := Validate(full, base, m); err != nil {
				t.Fatalf("base %d M %d: %v", base, m, err)
			}
			// Reflected Gray: exactly two digits change per step.
			for i, tr := range Transitions(full) {
				if tr != 2 {
					t.Fatalf("base %d M %d: step %d changes %d digits, want 2", base, m, i, tr)
				}
			}
		}
	}
}

func TestGrayBaseWordSingleDigitSteps(t *testing.T) {
	g, _ := NewGray(3, 8)
	prev := g.BaseWord(0)
	for i := 1; i < g.SpaceSize(); i++ {
		cur := g.BaseWord(i)
		if d := cur.Hamming(prev); d != 1 {
			t.Fatalf("base words %d->%d differ in %d digits", i-1, i, d)
		}
		// n-ary reflected Gray changes a digit by exactly +/-1.
		for j := range cur {
			if cur[j] != prev[j] {
				diff := cur[j] - prev[j]
				if diff != 1 && diff != -1 {
					t.Fatalf("step %d changes digit %d by %d", i, j, diff)
				}
			}
		}
		prev = cur
	}
}

func TestGraySpansWholeSpace(t *testing.T) {
	g, _ := NewGray(2, 8)
	full, err := g.Sequence(16)
	if err != nil {
		t.Fatal(err)
	}
	if !Distinct(full) {
		t.Error("Gray sequence repeats words")
	}
	// Same code space as the tree code: every word is a reflected word.
	tc, _ := NewTree(2, 8)
	for _, w := range full {
		if _, err := tc.IndexOf(w); err != nil {
			t.Errorf("Gray word %v not in tree space: %v", w, err)
		}
	}
}

func TestGrayPaperEligibleSequence(t *testing.T) {
	// Paper Sec 2.3: 0000 => 0001 => 0002 => 0012 is an eligible Gray
	// sequence (base words, one digit per step); the tree-code order
	// 0000 => 0001 => 0002 => 0010 is not.
	eligible := []Word{
		FromDigits(0, 0, 0, 0), FromDigits(0, 0, 0, 1),
		FromDigits(0, 0, 0, 2), FromDigits(0, 0, 1, 2),
	}
	if !IsGraySequence(eligible, 1) {
		t.Error("paper's eligible GC sequence rejected")
	}
	treeOrder := []Word{
		FromDigits(0, 0, 0, 0), FromDigits(0, 0, 0, 1),
		FromDigits(0, 0, 0, 2), FromDigits(0, 0, 1, 0),
	}
	if IsGraySequence(treeOrder, 1) {
		t.Error("tree-code order wrongly accepted as Gray")
	}
}

// TestGrayBaseWordBeyondMaxInt pins BaseWord where n^(M/2) exceeds
// MaxInt: the leading digits, whose strides no int index reaches, are 0,
// and the rest is the word of the shortest code whose strides fit, so
// BaseWord(i) at M = 130 is the zero-padded word of a short Gray code, up
// to i = MaxInt.
func TestGrayBaseWordBeyondMaxInt(t *testing.T) {
	for _, tc := range []struct {
		base, short int // short: a length whose space holds every index tried
		idx         []int
	}{
		{2, 8, []int{0, 1, 2, 5, 15}},
		{3, 8, []int{0, 1, 2, 40, 80}},
		{2, 126, []int{0, 7, 1 << 40, math.MaxInt - 1, math.MaxInt}},
		{3, 80, []int{0, 5, 3 << 50, math.MaxInt - 1, math.MaxInt}},
	} {
		long, err := NewGray(tc.base, 130)
		if err != nil {
			t.Fatal(err)
		}
		short, err := NewGray(tc.base, tc.short)
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range tc.idx {
			got, want := long.BaseWord(i), short.BaseWord(i)
			pad := len(got) - len(want)
			for j, d := range got {
				w := 0
				if j >= pad {
					w = want[j-pad]
				}
				if d != w {
					t.Fatalf("base %d: BaseWord(%d) at M=130 = %v, want %v zero-padded", tc.base, i, got, want)
				}
			}
		}
	}
	// The reflected words are valid words of the long code.
	for _, base := range []int{2, 3} {
		g, err := NewGray(base, 130)
		if err != nil {
			t.Fatal(err)
		}
		words, err := g.Sequence(40)
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range words {
			if !w.Valid(base) || len(w) != 130 {
				t.Fatalf("base %d word %d = %v is not a length-130 base-%d word", base, i, w, base)
			}
		}
	}
}

func TestGrayValidation(t *testing.T) {
	if _, err := NewGray(2, 3); err == nil {
		t.Error("odd length accepted")
	}
	if _, err := NewGray(37, 4); err == nil {
		t.Error("huge base accepted")
	}
	g, _ := NewGray(2, 4)
	if _, err := g.Sequence(100); !errors.Is(err, ErrCountExceedsSpace) {
		t.Error("oversize request accepted")
	}
}

func TestGrayBaseWordBijection(t *testing.T) {
	g, _ := NewGray(4, 6)
	seen := make(map[string]bool)
	for i := 0; i < g.SpaceSize(); i++ {
		k := g.BaseWord(i).Key()
		if seen[k] {
			t.Fatalf("BaseWord not injective at %d", i)
		}
		seen[k] = true
	}
	if len(seen) != g.SpaceSize() {
		t.Fatalf("BaseWord covers %d of %d words", len(seen), g.SpaceSize())
	}
}

func TestTreeGraySameSpaceProperty(t *testing.T) {
	f := func(baseRaw, lRaw uint8) bool {
		base := int(baseRaw%3) + 2 // 2..4
		m := (int(lRaw%3) + 2) * 2 // 4,6,8
		g, err1 := NewGray(base, m)
		tc, err2 := NewTree(base, m)
		if err1 != nil || err2 != nil {
			return false
		}
		gw, err1 := g.Sequence(g.SpaceSize())
		tw, err2 := tc.Sequence(tc.SpaceSize())
		if err1 != nil || err2 != nil {
			return false
		}
		set := make(map[string]bool, len(tw))
		for _, w := range tw {
			set[w.Key()] = true
		}
		for _, w := range gw {
			if !set[w.Key()] {
				return false
			}
		}
		return len(gw) == len(tw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
