package code

import (
	"fmt"
	"testing"
)

// The generator fuzz harnesses below pin the structural invariants the
// paper's Φ/Σ optimality argument rests on, over arbitrary (base,
// length, index) triples instead of the handful of sizes the unit tests
// enumerate. clampCodeSpace maps unconstrained fuzz inputs onto the
// feasible region: base 2..6 and 1..5 free digits keeps the code space
// Ω = base^(M/2) at or below 6^5 = 7776 words per iteration.
func clampCodeSpace(base, length int) (int, int) {
	base = 2 + abs(base)%5
	half := 1 + abs(length)%5
	return base, 2 * half
}

// FuzzGrayAdjacency pins the defining Gray invariant: successive base
// words differ in exactly one digit, by exactly ±1, and their
// reflections therefore differ in exactly two digits — the transition
// minimum Propositions 4 and 5 build on.
func FuzzGrayAdjacency(f *testing.F) {
	f.Add(2, 8, 3)
	f.Add(3, 4, 0)
	f.Add(4, 10, 77)
	f.Add(6, 2, 5)
	f.Fuzz(func(t *testing.T, base, length, i int) {
		base, length = clampCodeSpace(base, length)
		g, err := NewGray(base, length)
		if err != nil {
			t.Fatalf("NewGray(%d, %d): %v", base, length, err)
		}
		space := g.SpaceSize()
		if space < 2 {
			return
		}
		i = abs(i) % (space - 1)
		w0, w1 := g.BaseWord(i), g.BaseWord(i+1)
		if d := w0.Hamming(w1); d != 1 {
			t.Fatalf("base words %v -> %v differ in %d digits, want 1", w0, w1, d)
		}
		for j := range w0 {
			if w0[j] != w1[j] {
				if diff := w0[j] - w1[j]; diff != 1 && diff != -1 {
					t.Fatalf("digit %d steps by %d between %v and %v, want ±1", j, diff, w0, w1)
				}
			}
		}
		if d := w0.Reflect(base).Hamming(w1.Reflect(base)); d != 2 {
			t.Fatalf("reflected words of %v -> %v differ in %d digits, want 2", w0, w1, d)
		}
	})
}

// FuzzBalancedGraySequence pins the balanced arrangement's contract for
// arbitrary prefixes: a structurally valid sequence (uniform length,
// in-base digits, pairwise distinct) that is a Gray path — so the total
// transition count meets the reflected-word minimum 2·(count-1) exactly —
// and word for word the sequence the reference search returns.
func FuzzBalancedGraySequence(f *testing.F) {
	f.Add(2, 8, 16)
	f.Add(3, 4, 9)
	f.Add(4, 6, 20)
	f.Add(2, 10, 32)
	f.Fuzz(func(t *testing.T, base, length, count int) {
		base, length = clampCodeSpace(base, length)
		b, err := NewBalancedGray(base, length)
		if err != nil {
			t.Fatalf("NewBalancedGray(%d, %d): %v", base, length, err)
		}
		// A small budget keeps iterations fast; the generator degrades to
		// the plain Gray arrangement when the search gives up, and every
		// invariant checked here must hold either way.
		b.SearchBudget = 50_000
		space := b.SpaceSize()
		count = 1 + abs(count)%min(space, 64)
		words, err := b.Sequence(count)
		if err != nil {
			t.Fatalf("Sequence(%d): %v", count, err)
		}
		if err := Validate(words, base, length); err != nil {
			t.Fatalf("invalid sequence: %v", err)
		}
		if !IsGraySequence(words, 2) {
			t.Fatalf("sequence of %d words is not a reflected Gray path", count)
		}
		if got, want := TotalTransitions(words), 2*(count-1); got != want {
			t.Fatalf("total transitions = %d, want the reflected minimum %d", got, want)
		}
		want := refBalancedGray(base, length, count, b.SearchBudget, b.DigitChangeTarget)
		checkSameWords(t, fmt.Sprintf("base %d M %d N %d", base, length, count), words, want)
	})
}

// FuzzTreeRoundTrip pins the tree-code decode: every generated word
// ranks back to its index, and corrupting the reflected half is
// rejected instead of silently mis-decoding.
func FuzzTreeRoundTrip(f *testing.F) {
	f.Add(2, 8, 3, 0)
	f.Add(3, 6, 11, 1)
	f.Add(5, 4, 19, 2)
	f.Fuzz(func(t *testing.T, base, length, i, corrupt int) {
		base, length = clampCodeSpace(base, length)
		tr, err := NewTree(base, length)
		if err != nil {
			t.Fatalf("NewTree(%d, %d): %v", base, length, err)
		}
		space := tr.SpaceSize()
		i = abs(i) % space
		w := tr.BaseWord(i).Reflect(base)
		idx, err := tr.IndexOf(w)
		if err != nil {
			t.Fatalf("IndexOf(%v): %v", w, err)
		}
		if idx != i {
			t.Fatalf("round trip: word %v decodes to %d, want %d", w, idx, i)
		}
		// Corrupt one digit of the reflected half: the word is no longer a
		// valid reflection and must be rejected.
		bad := w.Clone()
		j := length/2 + abs(corrupt)%(length/2)
		bad[j] = (bad[j] + 1) % base
		if _, err := tr.IndexOf(bad); err == nil {
			t.Fatalf("corrupted word %v (from %v) was accepted", bad, w)
		}
	})
}
