package code

import (
	"errors"
	"fmt"
	"strings"

	"nwdec/internal/nwerr"
)

// Type identifies a code family.
type Type int

// The five code families evaluated in the paper.
const (
	TypeTree Type = iota
	TypeGray
	TypeBalancedGray
	TypeHot
	TypeArrangedHot
)

// String returns the paper's abbreviation for the code family.
func (t Type) String() string {
	switch t {
	case TypeTree:
		return "TC"
	case TypeGray:
		return "GC"
	case TypeBalancedGray:
		return "BGC"
	case TypeHot:
		return "HC"
	case TypeArrangedHot:
		return "AHC"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Reflected reports whether the family is used in reflected form
// (tree-based codes are; hot codes are not).
func (t Type) Reflected() bool {
	return t == TypeTree || t == TypeGray || t == TypeBalancedGray
}

// AllTypes lists the five families in the paper's presentation order.
func AllTypes() []Type {
	return []Type{TypeTree, TypeGray, TypeBalancedGray, TypeHot, TypeArrangedHot}
}

// ParseType parses a family abbreviation (case-insensitive): tc, gc, bgc,
// hc, ahc. An unknown name is an Invalid-class error (see internal/nwerr).
func ParseType(s string) (Type, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "tc", "tree":
		return TypeTree, nil
	case "gc", "gray":
		return TypeGray, nil
	case "bgc", "balanced", "balanced-gray":
		return TypeBalancedGray, nil
	case "hc", "hot":
		return TypeHot, nil
	case "ahc", "arranged", "arranged-hot":
		return TypeArrangedHot, nil
	default:
		return 0, nwerr.Invalidf("code: unknown code type %q (want tc|gc|bgc|hc|ahc)", s)
	}
}

// Generator produces the canonical word sequence of one code family with
// fixed base and word length. The sequence order is the defining property of
// the family: tree codes count, Gray codes flip one base digit per step,
// balanced Gray codes additionally balance flips across digit positions, and
// arranged hot codes traverse the hot-code space with minimal (two-digit)
// transitions.
type Generator interface {
	// Type returns the code family.
	Type() Type
	// Base returns the logic valency n.
	Base() int
	// Length returns the total word length M, including the reflected part
	// for tree-based families.
	Length() int
	// SpaceSize returns Ω, the number of distinct words in the code space.
	SpaceSize() int
	// Sequence returns the first count words of the canonical arrangement.
	// It fails when count exceeds SpaceSize or when no arrangement with the
	// family's structural constraints exists for this count.
	Sequence(count int) ([]Word, error)
}

// ErrCountExceedsSpace reports a Sequence request for more words than the
// code space holds.
var ErrCountExceedsSpace = errors.New("code: requested more words than the code space contains")

// New constructs a Generator of the given family. For tree-based families M
// must be even (length includes the reflection); for hot codes M must be a
// multiple of the base.
func New(t Type, base, length int) (Generator, error) {
	switch t {
	case TypeTree:
		return NewTree(base, length)
	case TypeGray:
		return NewGray(base, length)
	case TypeBalancedGray:
		return NewBalancedGray(base, length)
	case TypeHot:
		return NewHot(base, length)
	case TypeArrangedHot:
		return NewArrangedHot(base, length)
	default:
		return nil, fmt.Errorf("code: unknown code type %v", t)
	}
}

// CyclicSequence returns count words, repeating the generator's full
// arrangement when count exceeds the space size Ω. Code words may legally
// repeat across different contact groups — only nanowires sharing a group
// need distinct codes — so the decoder assigns the arrangement cyclically.
func CyclicSequence(g Generator, count int) ([]Word, error) {
	if count <= g.SpaceSize() {
		return g.Sequence(count)
	}
	full, err := g.Sequence(g.SpaceSize())
	if err != nil {
		return nil, err
	}
	out := make([]Word, count)
	for i := range out {
		out[i] = full[i%len(full)]
	}
	return out, nil
}

func checkBase(base int) error {
	if base < 2 {
		return fmt.Errorf("code: base must be >= 2, got %d", base)
	}
	if base > 36 {
		return fmt.Errorf("code: base must be <= 36, got %d", base)
	}
	return nil
}

// pow returns b^e for small non-negative integers, saturating at MaxInt to
// avoid overflow in space-size computations.
func pow(b, e int) int {
	const maxInt = int(^uint(0) >> 1)
	r := 1
	for i := 0; i < e; i++ {
		if r > maxInt/b {
			return maxInt
		}
		r *= b
	}
	return r
}
