package stats

import (
	"math"
	"testing"
)

func TestCovarianceKnown(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	// cov = 2 * var(xs); var(xs) = 5/3.
	if got := Covariance(xs, ys); !almostEqual(got, 10.0/3.0, 1e-12) {
		t.Errorf("Covariance = %g", got)
	}
	if !math.IsNaN(Covariance(xs, ys[:3])) {
		t.Error("mismatched lengths should be NaN")
	}
	if !math.IsNaN(Covariance([]float64{1}, []float64{2})) {
		t.Error("single pair should be NaN")
	}
}

func TestCorrelationExtremes(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	up := []float64{2, 4, 6, 8, 10}
	down := []float64{5, 4, 3, 2, 1}
	if got := Correlation(xs, up); !almostEqual(got, 1, 1e-12) {
		t.Errorf("perfect correlation = %g", got)
	}
	if got := Correlation(xs, down); !almostEqual(got, -1, 1e-12) {
		t.Errorf("perfect anticorrelation = %g", got)
	}
	if !math.IsNaN(Correlation(xs, []float64{3, 3, 3, 3, 3})) {
		t.Error("constant series correlation should be NaN")
	}
}

func TestCorrelationIndependentNearZero(t *testing.T) {
	r := NewRNG(17)
	const n = 20000
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = r.NormFloat64()
		ys[i] = r.NormFloat64()
	}
	if got := Correlation(xs, ys); math.Abs(got) > 0.03 {
		t.Errorf("independent correlation = %g", got)
	}
}
