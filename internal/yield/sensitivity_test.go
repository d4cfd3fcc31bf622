package yield

import (
	"math"
	"testing"

	"nwdec/internal/code"
	"nwdec/internal/geometry"
)

// TestSweepSigmaMonotone checks that the half-cave yield falls strictly
// as the per-dose deviation grows at a fixed margin, and that a zero sigma
// is rejected.
func TestSweepSigmaMonotone(t *testing.T) {
	g, _ := code.NewGray(2, 10)
	plan := testPlan(t, g, 20)
	contact := geometry.ContactPlan{Groups: 1}
	sigmas := []float64{0.02, 0.05, 0.08, 0.12}
	prev := math.Inf(1)
	for _, s := range sigmas {
		y := Analyzer{SigmaT: s, Margin: 0.25}.AnalyzeHalfCave(plan, contact).Yield
		if y >= prev {
			t.Errorf("yield not decreasing with sigma at %g", s)
		}
		prev = y
	}
	if err := (Analyzer{SigmaT: 0, Margin: 0.25}).Validate(); err == nil {
		t.Error("zero sigma accepted")
	}
}

// TestSweepMarginMonotone checks that the half-cave yield rises strictly
// with the sensing margin at a fixed sigma, and that a negative margin is
// rejected.
func TestSweepMarginMonotone(t *testing.T) {
	g, _ := code.NewGray(2, 10)
	plan := testPlan(t, g, 20)
	contact := geometry.ContactPlan{Groups: 1}
	margins := []float64{0.05, 0.1, 0.2, 0.3}
	prev := math.Inf(-1)
	for _, m := range margins {
		y := Analyzer{SigmaT: DefaultSigmaT, Margin: m}.AnalyzeHalfCave(plan, contact).Yield
		if y <= prev {
			t.Errorf("yield not increasing with margin at %g", m)
		}
		prev = y
	}
	if err := (Analyzer{SigmaT: DefaultSigmaT, Margin: -1}).Validate(); err == nil {
		t.Error("negative margin accepted")
	}
}

func TestSensitivities(t *testing.T) {
	g, _ := code.NewGray(2, 10)
	plan := testPlan(t, g, 20)
	a := Analyzer{SigmaT: DefaultSigmaT, Margin: 0.25}
	contact := geometry.ContactPlan{Groups: 1}
	s, err := a.Sensitivities(plan, contact, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if s.Sigma >= 0 {
		t.Errorf("sigma sensitivity %g should be negative", s.Sigma)
	}
	if s.Margin <= 0 {
		t.Errorf("margin sensitivity %g should be positive", s.Margin)
	}
	// By the scaling Y(f(margin/σ)): the two log-sensitivities are equal in
	// magnitude and opposite in sign.
	if diff := s.Sigma + s.Margin; diff > 0.05 || diff < -0.05 {
		t.Errorf("sensitivities not antisymmetric: σ %g, margin %g", s.Sigma, s.Margin)
	}
}

func TestSensitivitiesValidation(t *testing.T) {
	g, _ := code.NewGray(2, 8)
	plan := testPlan(t, g, 8)
	a := Analyzer{SigmaT: DefaultSigmaT, Margin: 0.25}
	contact := geometry.ContactPlan{Groups: 1}
	if _, err := a.Sensitivities(plan, contact, 0); err == nil {
		t.Error("zero step accepted")
	}
	if _, err := a.Sensitivities(plan, contact, 0.9); err == nil {
		t.Error("huge step accepted")
	}
	// A cave losing all its wires to contact boundaries has zero yield.
	dead := geometry.ContactPlan{Groups: 9, BoundaryLost: 999}
	if _, err := a.Sensitivities(plan, dead, 0.01); err == nil {
		t.Error("zero-yield operating point accepted")
	}
}
