package stats

import (
	"math"
	"sort"
)

// Sum returns the sum of xs (0 for an empty slice).
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of xs; it returns NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return Sum(xs) / float64(len(xs))
}

// Variance returns the unbiased (n-1) sample variance of xs. It returns NaN
// for fewer than two samples.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)-1)
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// MinMax returns the smallest and largest element of xs.
// It returns (NaN, NaN) for an empty slice.
func MinMax(xs []float64) (min, max float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. It returns NaN for an empty slice
// or an out-of-range q. The input is not modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 || q < 0 || q > 1 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N            int
	Mean, StdDev float64
	Min, Max     float64
	Median       float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) Summary {
	min, max := MinMax(xs)
	return Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		StdDev: StdDev(xs),
		Min:    min,
		Max:    max,
		Median: Quantile(xs, 0.5),
	}
}

// BinomialTailGE returns P(X >= k) for X ~ Binomial(n, p), evaluated in log
// space for numerical stability. It returns 1 for k <= 0 and 0 for k > n.
func BinomialTailGE(n int, p float64, k int) float64 {
	if k <= 0 {
		return 1
	}
	if k > n || p < 0 || p > 1 {
		if k > n {
			return 0
		}
		return math.NaN()
	}
	if p == 0 {
		return 0
	}
	if p == 1 {
		return 1
	}
	logP, logQ := math.Log(p), math.Log(1-p)
	tail := 0.0
	for i := k; i <= n; i++ {
		logTerm := logChoose(n, i) + float64(i)*logP + float64(n-i)*logQ
		tail += math.Exp(logTerm)
	}
	if tail > 1 {
		tail = 1
	}
	return tail
}

// logChoose returns ln C(n, k) via the log-gamma function.
func logChoose(n, k int) float64 {
	lg := func(x int) float64 {
		v, _ := math.Lgamma(float64(x + 1))
		return v
	}
	return lg(n) - lg(k) - lg(n-k)
}
