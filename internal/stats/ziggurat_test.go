package stats

import (
	"math"
	"testing"
)

// TestNormFloat64FastMoments checks mean and variance of the ziggurat
// sampler against the standard normal.
func TestNormFloat64FastMoments(t *testing.T) {
	r := NewRNG(5)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64Fast()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Fatalf("ziggurat mean %g too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Fatalf("ziggurat variance %g too far from 1", variance)
	}
}

// TestNormFloat64FastBands checks the empirical CDF at the 1σ/2σ/3σ bands
// and past the ziggurat tail cut, so both the wedge and the tail paths are
// exercised and distributed correctly.
func TestNormFloat64FastBands(t *testing.T) {
	r := NewRNG(17)
	const n = 400000
	var within1, within2, within3, beyondTail int
	for i := 0; i < n; i++ {
		v := math.Abs(r.NormFloat64Fast())
		if v < 1 {
			within1++
		}
		if v < 2 {
			within2++
		}
		if v < 3 {
			within3++
		}
		if v > zigR {
			beyondTail++
		}
	}
	check := func(name string, got int, want float64) {
		t.Helper()
		if f := float64(got) / n; math.Abs(f-want) > 0.005 {
			t.Errorf("%s fraction %g, want %g", name, f, want)
		}
	}
	check("1σ", within1, 0.6827)
	check("2σ", within2, 0.9545)
	check("3σ", within3, 0.9973)
	// P(|Z| > zigR) ≈ 5.76e-4: the tail path must fire but stay rare.
	if beyondTail == 0 {
		t.Error("tail path never sampled")
	}
	if f := float64(beyondTail) / n; f > 0.002 {
		t.Errorf("tail fraction %g too large", f)
	}
}

// TestNormFloat64FastDeterministic pins the determinism contract: equal
// seeds give equal sequences, and the sampler is a pure function of the
// generator state (a clone continues identically).
func TestNormFloat64FastDeterministic(t *testing.T) {
	a, b := NewRNG(99), NewRNG(99)
	for i := 0; i < 1000; i++ {
		if a.NormFloat64Fast() != b.NormFloat64Fast() {
			t.Fatalf("sequences diverged at draw %d", i)
		}
	}
	c := a.Clone()
	for i := 0; i < 1000; i++ {
		if a.NormFloat64Fast() != c.NormFloat64Fast() {
			t.Fatalf("clone diverged at draw %d", i)
		}
	}
}

// BenchmarkNormFloat64 and BenchmarkNormFloat64Fast quantify the sampler
// swap on the Monte-Carlo hot path.
func BenchmarkNormFloat64(b *testing.B) {
	r := NewRNG(1)
	s := 0.0
	for i := 0; i < b.N; i++ {
		s += r.NormFloat64()
	}
	if math.IsNaN(s) {
		b.Fatal("NaN")
	}
}

func BenchmarkNormFloat64Fast(b *testing.B) {
	r := NewRNG(1)
	s := 0.0
	for i := 0; i < b.N; i++ {
		s += r.NormFloat64Fast()
	}
	if math.IsNaN(s) {
		b.Fatal("NaN")
	}
}
