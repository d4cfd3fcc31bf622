package code

import (
	"fmt"
	"math"
)

// Gray is the n-ary reflected Gray arrangement of the tree-code space: the
// same n^(M/2) words as the tree code, ordered so that successive base words
// differ in exactly one digit (by ±1). After reflection each step changes
// exactly two of the M digits — the provable minimum for reflected words —
// which Propositions 4 and 5 show minimizes both the decoder variability
// ‖Σ‖₁ and the fabrication complexity Φ.
type Gray struct {
	base   int
	length int
}

// NewGray returns the n-ary Gray arrangement with total (reflected) word
// length M.
func NewGray(base, length int) (*Gray, error) {
	if err := checkBase(base); err != nil {
		return nil, err
	}
	if length < 2 || length%2 != 0 {
		return nil, fmt.Errorf("code: reflected Gray code needs even length >= 2, got %d", length)
	}
	return &Gray{base: base, length: length}, nil
}

// Type implements Generator.
func (g *Gray) Type() Type { return TypeGray }

// Base implements Generator.
func (g *Gray) Base() int { return g.base }

// Length implements Generator.
func (g *Gray) Length() int { return g.length }

// BaseLength returns the number of free digits M/2.
func (g *Gray) BaseLength() int { return g.length / 2 }

// SpaceSize implements Generator: Ω = n^(M/2).
func (g *Gray) SpaceSize() int { return pow(g.base, g.BaseLength()) }

// Sequence implements Generator.
func (g *Gray) Sequence(count int) ([]Word, error) {
	if count < 0 {
		return nil, fmt.Errorf("code: negative word count %d", count)
	}
	if count > g.SpaceSize() {
		return nil, fmt.Errorf("%w: Gray code base %d length %d has %d words, requested %d",
			ErrCountExceedsSpace, g.base, g.length, g.SpaceSize(), count)
	}
	words := make([]Word, count)
	for i := 0; i < count; i++ {
		words[i] = g.BaseWord(i).Reflect(g.base)
	}
	return words, nil
}

// BaseWord returns the i-th word of the n-ary reflected Gray counting
// sequence over M/2 digits (most-significant first). The recursion is the
// classical one: the leading digit counts 0..n-1 and every odd block
// traverses the remaining digits in reverse, so consecutive indices differ
// in exactly one digit by ±1.
//
// A digit whose stride n^(M/2−1−j) exceeds MaxInt is 0 for every int
// index, and a 0 digit leaves the index below it unreflected, so the walk
// starts at the largest stride that fits: in a space beyond MaxInt the
// word is the zero-padded word of a shorter code.
func (g *Gray) BaseWord(i int) Word {
	l := g.BaseLength()
	w := make(Word, l)
	j, stride := l-1, 1
	for j > 0 && stride <= math.MaxInt/g.base {
		stride *= g.base
		j--
	}
	for ; j < l; j++ {
		d := i / stride
		i %= stride
		w[j] = d
		if d%2 == 1 {
			// Reversed traversal of the inner block.
			i = stride - 1 - i
		}
		if stride > 1 {
			stride /= g.base
		}
	}
	return w
}
