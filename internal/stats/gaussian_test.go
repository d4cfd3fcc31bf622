package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestGaussianCDF(t *testing.T) {
	g := Gaussian{Mu: 0, Sigma: 1}
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1, 0.841344746},
		{-1, 0.158655254},
		{2, 0.977249868},
		{-3, 0.001349898},
	}
	for _, c := range cases {
		if got := g.CDF(c.x); !almostEqual(got, c.want, 1e-6) {
			t.Errorf("CDF(%g) = %g, want %g", c.x, got, c.want)
		}
	}
}

func TestGaussianCDFShifted(t *testing.T) {
	g := Gaussian{Mu: 2, Sigma: 3}
	if got := g.CDF(2); !almostEqual(got, 0.5, 1e-12) {
		t.Errorf("CDF at mean = %g, want 0.5", got)
	}
	if got := g.CDF(5); !almostEqual(got, 0.841344746, 1e-6) {
		t.Errorf("CDF(mu+sigma) = %g", got)
	}
}

func TestGaussianPointMass(t *testing.T) {
	g := Gaussian{Mu: 1, Sigma: 0}
	if g.CDF(0.999) != 0 || g.CDF(1) != 1 {
		t.Error("point-mass CDF wrong")
	}
	if g.ProbWithin(0) != 1 {
		t.Error("point mass should always be within any margin")
	}
}

func TestProbWithin(t *testing.T) {
	g := Gaussian{Mu: 0.3, Sigma: 0.05}
	// One sigma two-sided: erf(1/sqrt(2)) ~ 0.6826895.
	if got := g.ProbWithin(0.05); !almostEqual(got, 0.6826895, 1e-6) {
		t.Errorf("ProbWithin(sigma) = %g", got)
	}
	// Must agree with CDF difference.
	want := g.CDF(0.3+0.12) - g.CDF(0.3-0.12)
	if got := g.ProbWithin(0.12); !almostEqual(got, want, 1e-12) {
		t.Errorf("ProbWithin mismatch with CDF difference: %g vs %g", got, want)
	}
	if g.ProbWithin(-0.1) != 0 {
		t.Error("negative margin must have probability 0")
	}
}

func TestSampleMatchesDistribution(t *testing.T) {
	g := Gaussian{Mu: 0.4, Sigma: 0.07}
	r := NewRNG(99)
	const n = 100000
	within := 0
	for i := 0; i < n; i++ {
		if math.Abs(r.Normal(g.Mu, g.Sigma)-g.Mu) <= 0.1 {
			within++
		}
	}
	got := float64(within) / n
	want := g.ProbWithin(0.1)
	if !almostEqual(got, want, 0.01) {
		t.Errorf("empirical within-prob %g, analytic %g", got, want)
	}
}

func TestProbWithinMonotone(t *testing.T) {
	f := func(sigmaRaw, d1Raw, d2Raw uint16) bool {
		sigma := float64(sigmaRaw%1000)/1000 + 0.001
		d1 := float64(d1Raw%1000) / 500
		d2 := float64(d2Raw%1000) / 500
		if d1 > d2 {
			d1, d2 = d2, d1
		}
		g := Gaussian{Mu: 0, Sigma: sigma}
		return g.ProbWithin(d1) <= g.ProbWithin(d2)+1e-15
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCDFMonotoneProperty(t *testing.T) {
	f := func(x1, x2 int16) bool {
		g := Gaussian{Mu: 0, Sigma: 2}
		a, b := float64(x1)/100, float64(x2)/100
		if a > b {
			a, b = b, a
		}
		return g.CDF(a) <= g.CDF(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
