package stats

import "math"

// Marsaglia–Tsang ziggurat sampler for the standard normal distribution:
// 128 horizontal layers of equal area covering the density, with the tail
// beyond zigR handled by exact exponential rejection. The common case
// (~98.8% of draws) costs one 64-bit draw, one table lookup and one
// multiply — no transcendentals — which makes it the sampler of the bulk
// Monte-Carlo hot path (Plan.SampleVTInto), where the polar method's
// log/sqrt per pair dominates the fabrication profile.
//
// NormFloat64Fast consumes the underlying uniform stream differently than
// NormFloat64 (one draw per accepted variate instead of pairs), so the two
// samplers produce different — but individually deterministic — sequences
// from the same generator state. Code that relies on a pinned draw order
// must not switch samplers; the statistical tests accept either.
const (
	// zigR is the start of the tail: x coordinate of the lowest layer edge.
	zigR = 3.442619855899
	// zigArea is the common area of each layer (and of the base strip
	// including the tail).
	zigArea = 9.91256303526217e-3
)

var (
	zigKn [128]uint32  // acceptance thresholds: |hz| < kn[i] accepts directly
	zigWn [128]float64 // layer widths scaled to the 32-bit lattice
	zigFn [128]float64 // density at the layer edges
)

// The tables are a pure function of the two constants above, so computing
// them at init keeps the package deterministic (nwlint's determinism rule
// allows init-time math, which cannot observe wall clock or map order).
func init() {
	// The lattice coordinate is a signed 32-bit integer, so the layer edge
	// dn must map to |hz| = 2^31 — the scale is 2^31, not 2^32.
	const m1 = 2147483648.0
	dn, tn := zigR, zigR
	q := zigArea / math.Exp(-0.5*dn*dn)
	zigKn[0] = uint32((dn / q) * m1)
	zigKn[1] = 0
	zigWn[0] = q / m1
	zigWn[127] = dn / m1
	zigFn[0] = 1
	zigFn[127] = math.Exp(-0.5 * dn * dn)
	for i := 126; i >= 1; i-- {
		dn = math.Sqrt(-2 * math.Log(zigArea/dn+math.Exp(-0.5*dn*dn)))
		zigKn[i+1] = uint32((dn / tn) * m1)
		tn = dn
		zigFn[i] = math.Exp(-0.5 * dn * dn)
		zigWn[i] = dn / m1
	}
}

// NormFloat64Fast returns a standard normal variate using the ziggurat
// method. It is a drop-in statistical replacement for NormFloat64 with a
// different (still fully deterministic) stream mapping; see the package
// comment above for when each sampler applies.
func (r *RNG) NormFloat64Fast() float64 {
	for {
		u := r.Uint64()
		i := int(u & 127)    // layer index: low 7 bits
		hz := int32(u >> 32) // signed 32-bit lattice coordinate: high bits
		x := float64(hz) * zigWn[i]
		if absInt32(hz) < zigKn[i] {
			// The coordinate falls inside the layer's rectangle core.
			return x
		}
		if i == 0 {
			// Base layer: sample the tail beyond zigR exactly.
			for {
				xt := -math.Log(r.Float64()) / zigR
				yt := -math.Log(r.Float64())
				if yt+yt >= xt*xt {
					if hz < 0 {
						return -(zigR + xt)
					}
					return zigR + xt
				}
			}
		}
		// Wedge between the rectangle and the density curve.
		if zigFn[i]+float64(r.Uint64()>>11)/(1<<53)*(zigFn[i-1]-zigFn[i]) < math.Exp(-0.5*x*x) {
			return x
		}
	}
}

func absInt32(v int32) uint32 {
	if v < 0 {
		return uint32(-int64(v))
	}
	return uint32(v)
}
