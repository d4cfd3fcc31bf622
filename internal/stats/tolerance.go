package stats

import (
	"fmt"
	"math"
)

// ProportionTolerance returns z·√(p(1−p)/n): the half-width of the band
// around the true proportion p within which an estimate from n independent
// trials stays, except with probability alpha/m. Sizing each of m
// comparisons this way makes the chance that any of them fails on correct
// code at most alpha (the Bonferroni correction), whatever the dependence
// between them. z = √2·erfinv(1 − alpha/m) is the two-sided quantile of
// the normal approximation to the binomial, so the bound is for trial
// counts large enough that the approximation holds in its tails.
//
// The estimate being bounded may average any [0, 1]-valued per-trial
// score (a fraction of wires, say), not only a 0/1 outcome: such a score
// with mean p has variance at most p(1−p), so the band stays valid, and
// conservative, when n counts the trials and not the scores within them.
//
// It refuses n <= 0, m < 1, alpha outside (0, 1) and p outside [0, 1].
func ProportionTolerance(p float64, n int, alpha float64, m int) (float64, error) {
	z, err := bonferroniZ(alpha, m)
	if err != nil {
		return 0, err
	}
	v, err := proportionVariance(p, n)
	if err != nil {
		return 0, err
	}
	return z * math.Sqrt(v), nil
}

// TwoProportionTolerance is ProportionTolerance for the difference of two
// independent estimates, p1 from n1 trials and p2 from n2:
// z·√(p1(1−p1)/n1 + p2(1−p2)/n2). Two samplers of the same distribution
// agree when |p1 − p2| is within it.
func TwoProportionTolerance(p1 float64, n1 int, p2 float64, n2 int, alpha float64, m int) (float64, error) {
	z, err := bonferroniZ(alpha, m)
	if err != nil {
		return 0, err
	}
	v1, err := proportionVariance(p1, n1)
	if err != nil {
		return 0, err
	}
	v2, err := proportionVariance(p2, n2)
	if err != nil {
		return 0, err
	}
	return z * math.Sqrt(v1+v2), nil
}

// bonferroniZ returns the two-sided normal quantile √2·erfinv(1 − alpha/m)
// that a single comparison exceeds with probability alpha/m.
func bonferroniZ(alpha float64, m int) (float64, error) {
	if !(alpha > 0 && alpha < 1) {
		return 0, fmt.Errorf("stats: false-failure rate %g outside (0, 1)", alpha)
	}
	if m < 1 {
		return 0, fmt.Errorf("stats: comparison count %d, need at least 1", m)
	}
	return math.Sqrt2 * math.Erfinv(1-alpha/float64(m)), nil
}

// proportionVariance returns p(1−p)/n, the variance of a proportion
// estimated from n independent trials.
func proportionVariance(p float64, n int) (float64, error) {
	if n <= 0 {
		return 0, fmt.Errorf("stats: trial count %d, need at least 1", n)
	}
	if !(p >= 0 && p <= 1) {
		return 0, fmt.Errorf("stats: proportion %g outside [0, 1]", p)
	}
	return p * (1 - p) / float64(n), nil
}
