package geometry

import (
	"fmt"
	"math"
)

// CrossbarSpec fixes the global crossbar organization: the raw crosspoint
// count D_RAW and the number of nanowires per half cave (an MSPT process
// property — the number of spacer iterations per cave side).
type CrossbarSpec struct {
	Params
	// RawBits is D_RAW, the raw crosspoint count (16384 = 16 kbit in the
	// paper's simulations).
	RawBits int
	// HalfCaveWires is N, the nanowires per half cave.
	HalfCaveWires int
}

// DefaultCrossbarSpec returns the paper's simulation platform: a 16 kbit
// square crossbar with 20 nanowires per half cave on the default technology
// parameters.
func DefaultCrossbarSpec() CrossbarSpec {
	return CrossbarSpec{
		Params:        DefaultParams(),
		RawBits:       16384,
		HalfCaveWires: 20,
	}
}

// Layout is the resolved geometry of a square crossbar for one decoder
// configuration (code length M and code space size Ω).
type Layout struct {
	Spec CrossbarSpec
	// CodeLength is the decoder code length M (mesowires per decoder).
	CodeLength int
	// SpaceSize is the code space size Ω.
	SpaceSize int

	// WiresPerLayer is the number of nanowires on each crossbar layer.
	WiresPerLayer int
	// Caves is the number of caves per layer (each cave holds two half
	// caves mirrored about its symmetry axis).
	Caves int
	// Contact is the per-half-cave contact partition.
	Contact ContactPlan

	// ArraySpan is the extent of the crosspoint array in nm.
	ArraySpan float64
	// DecoderSpan is the extent of the decoder mesowires in nm (M wires at
	// the lithographic pitch).
	DecoderSpan float64
	// ContactSpan is the extent of the contact-group rows in nm.
	ContactSpan float64
	// Side is the full side length of the square crossbar in nm.
	Side float64
}

// NewLayout resolves the geometry for a decoder with code length M and code
// space size Ω.
//
// Both crossbar layers are identical for a square array: each layer's
// nanowires span the array region and extend through their own decoder
// (M mesowires at P_L) and contact rows (one row of height 1.5·P_L per
// contact group). The overhead of layer A extends the crossbar in x, that
// of layer B in y, so the side length is the sum of the array span and one
// layer's overhead.
func NewLayout(spec CrossbarSpec, codeLength, spaceSize int) (*Layout, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.RawBits <= 0 {
		return nil, fmt.Errorf("geometry: non-positive raw bit count %d", spec.RawBits)
	}
	if spec.HalfCaveWires <= 0 {
		return nil, fmt.Errorf("geometry: non-positive half-cave wire count %d", spec.HalfCaveWires)
	}
	if codeLength <= 0 {
		return nil, fmt.Errorf("geometry: non-positive code length %d", codeLength)
	}
	wires := int(math.Ceil(math.Sqrt(float64(spec.RawBits))))
	caves := (wires + 2*spec.HalfCaveWires - 1) / (2 * spec.HalfCaveWires)
	contact, err := spec.PlanContacts(spec.HalfCaveWires, spaceSize)
	if err != nil {
		return nil, err
	}
	l := &Layout{
		Spec:          spec,
		CodeLength:    codeLength,
		SpaceSize:     spaceSize,
		WiresPerLayer: wires,
		Caves:         caves,
		Contact:       contact,
	}
	l.ArraySpan = float64(wires) * spec.NanowirePitch
	l.DecoderSpan = float64(codeLength) * spec.LithoPitch
	// Contact rows are shared across half caves defined in the same
	// lithography step, so the span scales with the groups per half cave.
	l.ContactSpan = float64(contact.Groups) * spec.MinContactFactor * spec.LithoPitch
	l.Side = l.ArraySpan + l.DecoderSpan + l.ContactSpan
	return l, nil
}

// Area returns the total crossbar area in nm².
func (l *Layout) Area() float64 { return l.Side * l.Side }

// EffectiveBitArea returns the area per *working* crosspoint given the cave
// yield (fraction of addressable nanowires per layer): the effective density
// is D_EFF = D_RAW · Y², so the bit area grows as 1/Y². It returns +Inf for
// a zero yield.
func (l *Layout) EffectiveBitArea(yield float64) float64 {
	if yield <= 0 {
		return math.Inf(1)
	}
	return l.Area() / (float64(l.Spec.RawBits) * yield * yield)
}
