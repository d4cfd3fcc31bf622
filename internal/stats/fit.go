package stats

import "math"

// Covariance returns the unbiased sample covariance of paired samples.
// It returns NaN for fewer than two pairs or mismatched lengths.
func Covariance(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return math.NaN()
	}
	mx, my := Mean(xs), Mean(ys)
	s := 0.0
	for i := range xs {
		s += (xs[i] - mx) * (ys[i] - my)
	}
	return s / float64(len(xs)-1)
}

// Correlation returns the Pearson correlation coefficient of paired
// samples, NaN when undefined (constant series or too few points).
func Correlation(xs, ys []float64) float64 {
	cov := Covariance(xs, ys)
	sx, sy := StdDev(xs), StdDev(ys)
	if sx == 0 || sy == 0 || math.IsNaN(cov) {
		return math.NaN()
	}
	return cov / (sx * sy)
}
