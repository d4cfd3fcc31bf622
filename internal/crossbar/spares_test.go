package crossbar

import (
	"math"
	"testing"
	"testing/quick"

	"nwdec/internal/stats"
)

func TestSpareWiresZeroFailure(t *testing.T) {
	s, err := SpareWires(128, 0, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if s != 0 {
		t.Errorf("perfect process needs %d spares, want 0", s)
	}
}

func TestSpareWiresGrowWithFailureProb(t *testing.T) {
	prev := -1
	for _, p := range []float64{0.01, 0.05, 0.1, 0.2} {
		s, err := SpareWires(128, p, 0.99)
		if err != nil {
			t.Fatal(err)
		}
		if s <= prev {
			t.Errorf("p=%g: spares %d not above %d", p, s, prev)
		}
		prev = s
		// Expectation check: spares must at least cover the mean loss.
		if float64(s) < 128*p {
			t.Errorf("p=%g: %d spares below the expected loss %.1f", p, s, 128*p)
		}
	}
}

func TestSpareWiresMeetConfidence(t *testing.T) {
	const required, p, conf = 128, 0.07, 0.99
	s, err := SpareWires(required, p, conf)
	if err != nil {
		t.Fatal(err)
	}
	// The chance that at least required of required+s wires work.
	if got := stats.BinomialTailGE(required+s, 1-p, required); got < conf {
		t.Errorf("confidence with %d spares = %g, want >= %g", s, got, conf)
	}
	if s > 0 {
		if less := stats.BinomialTailGE(required+s-1, 1-p, required); less >= conf {
			t.Errorf("spare count %d not minimal", s)
		}
	}
}

func TestSpareWiresValidation(t *testing.T) {
	if _, err := SpareWires(0, 0.1, 0.9); err == nil {
		t.Error("zero required accepted")
	}
	if _, err := SpareWires(10, 1.0, 0.9); err == nil {
		t.Error("certain failure accepted")
	}
	if _, err := SpareWires(10, 0.1, 1.0); err == nil {
		t.Error("confidence 1 accepted")
	}
}

func TestBinomialTailMatchesMonteCarlo(t *testing.T) {
	const n, p, k = 40, 0.85, 34
	want := stats.BinomialTailGE(n, p, k)
	rng := stats.NewRNG(33)
	const trials = 60000
	hit := 0
	for tr := 0; tr < trials; tr++ {
		count := 0
		for i := 0; i < n; i++ {
			if rng.Float64() < p {
				count++
			}
		}
		if count >= k {
			hit++
		}
	}
	got := float64(hit) / trials
	if math.Abs(got-want) > 0.01 {
		t.Errorf("MC tail %g vs analytic %g", got, want)
	}
}

func TestBinomialTailProperties(t *testing.T) {
	f := func(nRaw, kRaw, pRaw uint8) bool {
		n := int(nRaw%50) + 1
		k := int(kRaw) % (n + 2)
		p := float64(pRaw) / 255
		tail := stats.BinomialTailGE(n, p, k)
		if k <= 0 && tail != 1 {
			return false
		}
		if k > n && tail != 0 {
			return false
		}
		return tail >= 0 && tail <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
