package stats

import (
	"math"
	"testing"
)

func TestBonferroniZ(t *testing.T) {
	z, err := bonferroniZ(0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(z-1.959964) > 5e-7 {
		t.Errorf("z(0.05, 1) = %.7f, want 1.959964", z)
	}
	// Bonferroni: m comparisons at rate alpha are each run at alpha/m.
	for _, m := range []int{2, 20, 1000} {
		zm, err := bonferroniZ(0.05, m)
		if err != nil {
			t.Fatal(err)
		}
		z1, err := bonferroniZ(0.05/float64(m), 1)
		if err != nil {
			t.Fatal(err)
		}
		if zm != z1 {
			t.Errorf("z(0.05, %d) = %g, z(0.05/%d, 1) = %g", m, zm, m, z1)
		}
		if zm <= z {
			t.Errorf("z(0.05, %d) = %g does not exceed z(0.05, 1) = %g", m, zm, z)
		}
	}
	// The two-sided 1e-6 quantile.
	if z, err := bonferroniZ(1e-6, 1); err != nil || math.Abs(z-4.891638) > 5e-6 {
		t.Errorf("z(1e-6, 1) = %g, %v; want 4.891638", z, err)
	}
}

func TestProportionTolerance(t *testing.T) {
	z, _ := bonferroniZ(0.05, 1)
	got, err := ProportionTolerance(0.5, 100, 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := z * 0.05; math.Abs(got-want) > 1e-15 {
		t.Errorf("tolerance(0.5, 100) = %g, want %g", got, want)
	}
	// The band narrows as 1/√n.
	quarter, err := ProportionTolerance(0.5, 400, 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(quarter-got/2) > 1e-15 {
		t.Errorf("tolerance at 4n = %g, want half of %g", quarter, got)
	}
	// A proportion of 0 or 1 has no sampling noise.
	for _, p := range []float64{0, 1} {
		if tol, err := ProportionTolerance(p, 50, 0.05, 3); err != nil || tol != 0 {
			t.Errorf("tolerance(p=%g) = %g, %v; want 0", p, tol, err)
		}
	}
}

func TestTwoProportionTolerance(t *testing.T) {
	one, err := ProportionTolerance(0.3, 1000, 1e-6, 20)
	if err != nil {
		t.Fatal(err)
	}
	two, err := TwoProportionTolerance(0.3, 1000, 0.3, 1000, 1e-6, 20)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(two-math.Sqrt2*one) > 1e-15 {
		t.Errorf("two-sample tolerance %g, want √2·%g", two, one)
	}
	a, _ := ProportionTolerance(0.2, 300, 0.01, 4)
	b, _ := ProportionTolerance(0.9, 700, 0.01, 4)
	got, err := TwoProportionTolerance(0.2, 300, 0.9, 700, 0.01, 4)
	if err != nil {
		t.Fatal(err)
	}
	if want := math.Hypot(a, b); math.Abs(got-want) > 1e-15 {
		t.Errorf("unequal samples: %g, want %g", got, want)
	}
	if tol, err := TwoProportionTolerance(0, 10, 1, 10, 0.05, 1); err != nil || tol != 0 {
		t.Errorf("degenerate proportions: %g, %v; want 0", tol, err)
	}
}

func TestToleranceRefusesBadInput(t *testing.T) {
	for _, tc := range []struct {
		name  string
		p     float64
		n     int
		alpha float64
		m     int
	}{
		{"zero trials", 0.5, 0, 0.05, 1},
		{"negative trials", 0.5, -3, 0.05, 1},
		{"zero comparisons", 0.5, 10, 0.05, 0},
		{"zero alpha", 0.5, 10, 0, 1},
		{"alpha one", 0.5, 10, 1, 1},
		{"NaN alpha", 0.5, 10, math.NaN(), 1},
		{"negative proportion", -0.1, 10, 0.05, 1},
		{"proportion above one", 1.1, 10, 0.05, 1},
		{"NaN proportion", math.NaN(), 10, 0.05, 1},
	} {
		if _, err := ProportionTolerance(tc.p, tc.n, tc.alpha, tc.m); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		// Either sample being bad refuses the two-sample form.
		if _, err := TwoProportionTolerance(tc.p, tc.n, 0.5, 10, tc.alpha, tc.m); err == nil {
			t.Errorf("%s (first sample): two-sample form accepted", tc.name)
		}
		if _, err := TwoProportionTolerance(0.5, 10, tc.p, tc.n, tc.alpha, tc.m); err == nil {
			t.Errorf("%s (second sample): two-sample form accepted", tc.name)
		}
	}
}
