package stats

import (
	"math"
	"testing"
)

// TestProbWithinScaledMatchesScalar pins the scaled-sigma batch against the
// scalar construction it replaces in yield.Analyzer.RegionProb: the √ν dose
// scaling must be bit-identical.
func TestProbWithinScaledMatchesScalar(t *testing.T) {
	g := Gaussian{Mu: 0, Sigma: 0.05}
	scales := make([]float64, 12)
	for nu := range scales {
		scales[nu] = math.Sqrt(float64(nu))
	}
	const margin = 0.158
	got := g.ProbWithinScaled(scales, margin, nil)
	for nu, scale := range scales {
		want := Gaussian{Mu: 0, Sigma: g.Sigma * scale}.ProbWithin(margin)
		if got[nu] != want {
			t.Errorf("ProbWithinScaled[%d] = %v, scalar = %v", nu, got[nu], want)
		}
	}
	// nu = 0 is the undosed-region point mass.
	if got[0] != 1 {
		t.Errorf("ProbWithinScaled[0] = %v, want 1", got[0])
	}
	// Negative delta zeroes every entry.
	neg := g.ProbWithinScaled(scales, -0.1, nil)
	for nu, p := range neg {
		if p != 0 {
			t.Errorf("negative delta: entry %d = %v, want 0", nu, p)
		}
	}
}
