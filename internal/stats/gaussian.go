package stats

import (
	"fmt"
	"math"
)

// Gaussian is a normal distribution with mean Mu and standard deviation
// Sigma. Sigma must be non-negative; Sigma == 0 denotes a point mass at Mu.
type Gaussian struct {
	Mu    float64
	Sigma float64
}

// CDF returns P(X <= x).
func (g Gaussian) CDF(x float64) float64 {
	if g.Sigma == 0 {
		if x < g.Mu {
			return 0
		}
		return 1
	}
	return 0.5 * (1 + math.Erf((x-g.Mu)/(g.Sigma*math.Sqrt2)))
}

// ProbWithin returns P(|X - Mu| <= delta), the probability that the variate
// stays within +/- delta of its mean. This is the addressability primitive of
// the yield model: a doping region decodes correctly when its threshold
// voltage stays within half a level spacing of its nominal value.
func (g Gaussian) ProbWithin(delta float64) float64 {
	if delta < 0 {
		return 0
	}
	if g.Sigma == 0 {
		return 1
	}
	return math.Erf(delta / (g.Sigma * math.Sqrt2))
}

// ProbWithinScaled evaluates P(|N(Mu, (Sigma·scale)²) - Mu| <= delta) for a
// batch of sigma scale factors, writing into dst (grown if needed) and
// returning it. Entry k is bit-identical to
// Gaussian{Mu: g.Mu, Sigma: g.Sigma * scales[k]}.ProbWithin(delta) — the
// repeated-dose tail evaluation of the yield model, where the k-th region
// accumulates k independent doses and its deviation scales by √k.
func (g Gaussian) ProbWithinScaled(scales []float64, delta float64, dst []float64) []float64 {
	if cap(dst) < len(scales) {
		dst = make([]float64, len(scales))
	}
	dst = dst[:len(scales)]
	for k, scale := range scales {
		sigma := g.Sigma * scale
		switch {
		case delta < 0:
			dst[k] = 0
		case sigma == 0:
			dst[k] = 1
		default:
			dst[k] = math.Erf(delta / (sigma * math.Sqrt2))
		}
	}
	return dst
}

// String implements fmt.Stringer.
func (g Gaussian) String() string {
	return fmt.Sprintf("N(%g, %g²)", g.Mu, g.Sigma)
}
