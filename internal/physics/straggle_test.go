package physics

import (
	"math"
	"testing"
)

func TestStraggleModelValidate(t *testing.T) {
	s := DefaultStraggleModel()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := *s
	bad.Model = nil
	if err := bad.Validate(); err == nil {
		t.Error("nil model accepted")
	}
	bad = *s
	bad.WireWidth = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero width accepted")
	}
}

func TestStraggleVolumeAndCount(t *testing.T) {
	s := DefaultStraggleModel()
	wantV := 32e-7 * 10e-7 * 60e-7 // 1.92e-17 cm^3
	if got := s.RegionVolume(); math.Abs(got-wantV)/wantV > 1e-12 {
		t.Errorf("RegionVolume = %g", got)
	}
	// At 5e18 cm^-3 the region holds ~96 dopants: countable, hence noisy.
	if got := 5e18 * s.RegionVolume(); math.Abs(got-96) > 1 {
		t.Errorf("dopant count = %g, want ~96", got)
	}
}

func TestStraggleSigmaTPlausibleMagnitude(t *testing.T) {
	// The derived per-dose deviation must land in the tens-of-millivolts
	// regime the paper assumes (σ_T = 50 mV).
	s := DefaultStraggleModel()
	q, err := NewQuantizer(s.Model, 2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	worst, err := s.WorstCaseSigmaT(q)
	if err != nil {
		t.Fatal(err)
	}
	if worst < 0.005 || worst > 0.3 {
		t.Errorf("worst-case σ_T = %g V, outside the plausible 5-300 mV band", worst)
	}
}

func TestStraggleSigmaTShrinksWithVolume(t *testing.T) {
	// Bigger regions average out dopant fluctuation.
	small := DefaultStraggleModel()
	big := DefaultStraggleModel()
	big.WireHeight *= 4
	sSmall, err := small.SigmaT(2e18)
	if err != nil {
		t.Fatal(err)
	}
	sBig, err := big.SigmaT(2e18)
	if err != nil {
		t.Fatal(err)
	}
	if sBig >= sSmall {
		t.Errorf("larger volume did not reduce σ_T: %g vs %g", sBig, sSmall)
	}
	// Quadrupling the volume halves σ_N (and σ_T).
	if ratio := sSmall / sBig; math.Abs(ratio-2) > 0.05 {
		t.Errorf("σ_T scaling ratio = %g, want ~2", ratio)
	}
}

func TestStraggleSigmaTErrorPropagation(t *testing.T) {
	s := DefaultStraggleModel()
	s.RegionLength = -1
	if _, err := s.SigmaT(2e18); err == nil {
		t.Error("invalid geometry accepted")
	}
	q, _ := NewQuantizer(DefaultPhysicalModel(), 2, 0, 1)
	if _, err := s.WorstCaseSigmaT(q); err == nil {
		t.Error("worst-case on invalid geometry accepted")
	}
}

func TestStraggleSigmaTMonotoneLevels(t *testing.T) {
	// σ_T is finite and positive at every quantizer level for ternary too.
	s := DefaultStraggleModel()
	q, _ := NewQuantizer(s.Model, 3, 0, 1)
	for k, nd := range q.DopingLevels() {
		sig, err := s.SigmaT(nd)
		if err != nil {
			t.Fatal(err)
		}
		if sig <= 0 || math.IsInf(sig, 0) || math.IsNaN(sig) {
			t.Errorf("level %d: σ_T = %g", k, sig)
		}
	}
}
