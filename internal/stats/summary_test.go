package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSumMean(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if Sum(xs) != 10 {
		t.Errorf("Sum = %g", Sum(xs))
	}
	if Mean(xs) != 2.5 {
		t.Errorf("Mean = %g", Mean(xs))
	}
	if Sum(nil) != 0 {
		t.Error("Sum(nil) != 0")
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
}

func TestVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// Population variance is 4; sample (n-1) variance is 32/7.
	want := 32.0 / 7.0
	if got := Variance(xs); !almostEqual(got, want, 1e-12) {
		t.Errorf("Variance = %g, want %g", got, want)
	}
	if got := StdDev(xs); !almostEqual(got, math.Sqrt(want), 1e-12) {
		t.Errorf("StdDev = %g", got)
	}
	if !math.IsNaN(Variance([]float64{1})) {
		t.Error("Variance of single sample should be NaN")
	}
}

func TestMinMax(t *testing.T) {
	min, max := MinMax([]float64{3, -1, 7, 0})
	if min != -1 || max != 7 {
		t.Errorf("MinMax = %g, %g", min, max)
	}
	min, max = MinMax(nil)
	if !math.IsNaN(min) || !math.IsNaN(max) {
		t.Error("MinMax(nil) should be NaN, NaN")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2} // sorted: 1 2 3 4
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if !math.IsNaN(Quantile(xs, -0.1)) || !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("invalid quantile inputs should return NaN")
	}
	// Input must not be reordered.
	if xs[0] != 4 {
		t.Error("Quantile mutated its input")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	if s.N != 3 || s.Mean != 2 || s.Min != 1 || s.Max != 3 || s.Median != 2 {
		t.Errorf("Summarize = %+v", s)
	}
}

func TestQuantileWithinRangeProperty(t *testing.T) {
	f := func(raw []int8, qRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		q := float64(qRaw) / 255
		v := Quantile(xs, q)
		min, max := MinMax(xs)
		return v >= min-1e-9 && v <= max+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBinomialTailGE(t *testing.T) {
	// Exact small case: P(X >= 1) for Bin(2, 0.5) = 3/4.
	if got := BinomialTailGE(2, 0.5, 1); !almostEqual(got, 0.75, 1e-12) {
		t.Errorf("tail = %g, want 0.75", got)
	}
	// P(X >= 2) for Bin(3, 0.2) = 3*0.04*0.8 + 0.008 = 0.104.
	if got := BinomialTailGE(3, 0.2, 2); !almostEqual(got, 0.104, 1e-12) {
		t.Errorf("tail = %g, want 0.104", got)
	}
	if BinomialTailGE(5, 0.3, 0) != 1 || BinomialTailGE(5, 0.3, -2) != 1 {
		t.Error("k <= 0 should give 1")
	}
	if BinomialTailGE(5, 0.3, 6) != 0 {
		t.Error("k > n should give 0")
	}
	if BinomialTailGE(5, 0, 1) != 0 || BinomialTailGE(5, 1, 5) != 1 {
		t.Error("degenerate p wrong")
	}
	if !math.IsNaN(BinomialTailGE(5, -0.1, 2)) || !math.IsNaN(BinomialTailGE(5, 1.5, 2)) {
		t.Error("invalid p should give NaN")
	}
	// Monotone decreasing in k.
	prev := 1.1
	for k := 0; k <= 20; k++ {
		v := BinomialTailGE(20, 0.6, k)
		if v > prev {
			t.Fatalf("tail not monotone at k=%d", k)
		}
		prev = v
	}
}

func TestLogChoose(t *testing.T) {
	if got := math.Exp(logChoose(10, 3)); !almostEqual(got, 120, 1e-9) {
		t.Errorf("C(10,3) via logs = %g", got)
	}
	if got := math.Exp(logChoose(52, 5)); !almostEqual(got, 2598960, 1e-3) {
		t.Errorf("C(52,5) via logs = %g", got)
	}
}
