package stats

import "testing"

// Known-answer vectors for the jump machinery, generated once from this
// implementation and frozen: any change to the seeding, the output function
// or the jump polynomials silently re-shuffles every parallel experiment, so
// these pin the exact stream positions.
func TestJumpKnownAnswer(t *testing.T) {
	r := NewRNG(2009)
	wantSeedState := [4]uint64{0x136726947f5f7f58, 0xa4ad926e86127a82, 0x31c4d616138665d5, 0x7409f0a75b30aa06}
	if r.s != wantSeedState {
		t.Fatalf("seed 2009 state = %#v, want %#v", r.s, wantSeedState)
	}

	j := r.Clone()
	j.Jump()
	wantJumpState := [4]uint64{0xf1c128149a13d3ab, 0x55cba37985674c52, 0x29023bf12558b352, 0x25aa7efc162a428c}
	if j.s != wantJumpState {
		t.Fatalf("post-Jump state = %#v, want %#v", j.s, wantJumpState)
	}
	for i, want := range []uint64{0x65de2e3994353806, 0x4385bb1ce1ed0ae0, 0x641958cfd941f15e} {
		if got := j.Uint64(); got != want {
			t.Errorf("post-Jump draw %d = %#x, want %#x", i, got, want)
		}
	}

	s2 := r.Split(2)
	for i, want := range []uint64{0xabcb40cf0d93cb5a, 0x49ff30ce65f73b41, 0x9a566a67aa17d236} {
		if got := s2.Uint64(); got != want {
			t.Errorf("Split(2) draw %d = %#x, want %#x", i, got, want)
		}
	}

	s0 := NewRNG(1).Split(0)
	for i, want := range []uint64{0x332802f81eaae9d0, 0x2d18d7749b84f96, 0xc3729a527851f63d} {
		if got := s0.Uint64(); got != want {
			t.Errorf("seed-1 Split(0) draw %d = %#x, want %#x", i, got, want)
		}
	}
}

func TestSplitDoesNotMutate(t *testing.T) {
	r := NewRNG(7)
	before := r.s
	_ = r.Split(5)
	_ = r.Streams(5)
	if r.s != before {
		t.Fatal("Split/Streams mutated the parent state")
	}
}

func TestStreamsMatchSplit(t *testing.T) {
	r := NewRNG(0xDEADBEEF)
	streams := r.Streams(8)
	if len(streams) != 8 {
		t.Fatalf("got %d streams", len(streams))
	}
	for i, s := range streams {
		want := r.Split(uint64(i))
		for k := 0; k < 16; k++ {
			if sv, wv := s.Uint64(), want.Uint64(); sv != wv {
				t.Fatalf("stream %d draw %d: Streams %#x != Split %#x", i, k, sv, wv)
			}
		}
	}
	if r.Streams(0) != nil || r.Streams(-1) != nil {
		t.Error("non-positive n should return nil")
	}
}

// TestJumpNonOverlap draws a window from the base stream and from each of a
// handful of jump substreams and checks that no value repeats — a smoke test
// that the substreams land in pairwise disjoint regions (each window is
// vanishingly small next to the 2^128 spacing, so a collision indicates a
// broken polynomial, not bad luck).
func TestJumpNonOverlap(t *testing.T) {
	const draws = 10000
	r := NewRNG(2009)
	seen := make(map[uint64]string, 5*draws)
	record := func(name string, g *RNG) {
		for i := 0; i < draws; i++ {
			v := g.Uint64()
			if prev, ok := seen[v]; ok {
				t.Fatalf("value %#x drawn by both %s and %s", v, prev, name)
			}
			seen[v] = name
		}
	}
	record("base", r.Clone())
	for i, s := range r.Streams(4) {
		record([]string{"s0", "s1", "s2", "s3"}[i], s)
	}
}

func TestJumpClearsGaussCache(t *testing.T) {
	a := NewRNG(11)
	a.NormFloat64() // the polar method leaves a cached second variate behind
	if !a.hasGauss {
		t.Fatal("expected a cached Gaussian after NormFloat64")
	}
	a.Jump()
	if a.hasGauss {
		t.Fatal("Jump kept the pre-jump Gaussian cache")
	}
}

func TestForkAdvancesParent(t *testing.T) {
	a := NewRNG(3)
	b := NewRNG(3)
	_ = a.Fork()
	b.Uint64()
	if a.Uint64() != b.Uint64() {
		t.Fatal("Fork should advance the parent by exactly one draw")
	}
}
