package readout

import (
	"context"
	"math"
	"testing"

	"nwdec/internal/code"
	"nwdec/internal/mspt"
	"nwdec/internal/physics"
	"nwdec/internal/stats"
)

func TestTransistorValidate(t *testing.T) {
	if err := DefaultTransistor().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultTransistor()
	bad.GOn = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero GOn accepted")
	}
	bad = DefaultTransistor()
	bad.GLeakFloor = 1
	if err := bad.Validate(); err == nil {
		t.Error("leak floor above GOn accepted")
	}
}

func TestConductanceRegimes(t *testing.T) {
	tr := DefaultTransistor()
	// Strong inversion: linear in overdrive.
	gHigh := tr.Conductance(1.0, 0.25)
	gMid := tr.Conductance(0.75, 0.25)
	if math.Abs(gHigh/gMid-1.5) > 1e-9 {
		t.Errorf("above-threshold conductance not linear: %g vs %g", gHigh, gMid)
	}
	// Subthreshold: one slope of gate swing costs one decade.
	g1 := tr.Conductance(0.25, 0.5)
	g2 := tr.Conductance(0.25-tr.SubthresholdSlope, 0.5)
	if math.Abs(g1/g2-10) > 1e-6 {
		t.Errorf("subthreshold slope wrong: ratio %g", g1/g2)
	}
	// The decade law itself, GOn·S·10^(over/S), for every subthreshold
	// overdrive above the floor.
	for over := -0.6; over < 0; over += 0.013 {
		want := tr.GOn * tr.SubthresholdSlope * math.Pow(10, over/tr.SubthresholdSlope)
		if got := tr.Conductance(0.5+over, 0.5); want > tr.GLeakFloor && math.Abs(got/want-1) > 1e-13 {
			t.Errorf("subthreshold conductance at overdrive %g = %g, want %g", over, got, want)
		}
	}
	// Deep off: clamps at the floor.
	if got := tr.Conductance(-5, 1); got != tr.GLeakFloor {
		t.Errorf("floor not applied: %g", got)
	}
	// Monotone in gate voltage.
	prev := 0.0
	for vg := -0.5; vg <= 1.5; vg += 0.01 {
		g := tr.Conductance(vg, 0.25)
		if g < prev {
			t.Fatalf("conductance decreased at vg=%g", vg)
		}
		prev = g
	}
}

func TestWireConductanceSeries(t *testing.T) {
	tr := DefaultTransistor()
	// One blocking device dominates the series chain.
	on := []float64{0.25, 0.25, 0.25}
	va := []float64{0.5, 0.5, 0.5}
	gAllOn := tr.WireConductance(on, va)
	blocked := []float64{0.25, 0.75, 0.25}
	gBlocked := tr.WireConductance(blocked, va)
	if gBlocked >= gAllOn/100 {
		t.Errorf("blocked wire conducts too well: %g vs %g", gBlocked, gAllOn)
	}
	// Series law: doubling the chain halves the conductance.
	g6 := tr.WireConductance(append(append([]float64{}, on...), on...), append(append([]float64{}, va...), va...))
	if math.Abs(g6/gAllOn-0.5) > 1e-9 {
		t.Errorf("series scaling wrong: %g vs %g", g6, gAllOn)
	}
}

func TestWireConductancePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("length mismatch did not panic")
		}
	}()
	DefaultTransistor().WireConductance([]float64{0.1}, []float64{0.5, 0.5})
}

func TestReadGroupDistinguishesNominalWires(t *testing.T) {
	// A nominal Gray-coded group must be sensable with a healthy ratio.
	g, _ := code.NewGray(2, 8)
	q, _ := physics.NewQuantizer(physics.DefaultPhysicalModel(), 2, 0, 1)
	plan, err := mspt.NewPlanFromGenerator(g, 12, q, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr := DefaultTransistor()
	vt := plan.SampleVT(stats.NewRNG(1), 0, q.VTOf) // nominal
	pattern := plan.Pattern()
	for i := range pattern {
		va := addressVoltages(q, pattern[i])
		read, err := tr.ReadGroup(vt, va, i)
		if err != nil {
			t.Fatal(err)
		}
		if read.OnCurrentRatio < DefaultMinRatio {
			t.Errorf("wire %d: on/off ratio %g below criterion", i, read.OnCurrentRatio)
		}
		if read.WorstOffRatio < read.OnCurrentRatio {
			t.Errorf("wire %d: worst-off ratio below group ratio", i)
		}
	}
}

func TestReadGroupValidation(t *testing.T) {
	tr := DefaultTransistor()
	if _, err := tr.ReadGroup(nil, nil, 0); err == nil {
		t.Error("empty group accepted")
	}
	vts := [][]float64{{0.25}, {0.75}}
	if _, err := tr.ReadGroup(vts, []float64{0.5}, 2); err == nil {
		t.Error("out-of-range target accepted")
	}
}

func TestReadGroupSingleWire(t *testing.T) {
	tr := DefaultTransistor()
	read, err := tr.ReadGroup([][]float64{{0.25, 0.25}}, []float64{0.5, 0.5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(read.OnCurrentRatio, 1) {
		t.Errorf("lone wire ratio = %g, want +Inf", read.OnCurrentRatio)
	}
}

func TestMonteCarloSensability(t *testing.T) {
	g, _ := code.NewBalancedGray(2, 10)
	q, _ := physics.NewQuantizer(physics.DefaultPhysicalModel(), 2, 0, 1)
	plan, err := mspt.NewPlanFromGenerator(g, 20, q, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr := DefaultTransistor()
	study, err := MonteCarlo(context.Background(), tr, plan, q, 0.05, 0, 40, stats.NewRNG(3).Substreams(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if study.MinRatio != DefaultMinRatio {
		t.Errorf("default ratio not applied: %g", study.MinRatio)
	}
	if study.SensableFraction < 0.5 || study.SensableFraction > 1 {
		t.Errorf("sensable fraction %g implausible", study.SensableFraction)
	}
	if study.Ratios.N != 40*20 {
		t.Errorf("ratio sample count %d", study.Ratios.N)
	}
	if study.Ratios.Median < DefaultMinRatio {
		t.Errorf("median on/off ratio %g below criterion", study.Ratios.Median)
	}
}

func TestMonteCarloSensabilityDegradesWithNoise(t *testing.T) {
	g, _ := code.NewGray(2, 8)
	q, _ := physics.NewQuantizer(physics.DefaultPhysicalModel(), 2, 0, 1)
	plan, err := mspt.NewPlanFromGenerator(g, 16, q, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr := DefaultTransistor()
	quiet, err := MonteCarlo(context.Background(), tr, plan, q, 0.02, 10, 30, stats.NewRNG(5).Substreams(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := MonteCarlo(context.Background(), tr, plan, q, 0.12, 10, 30, stats.NewRNG(5).Substreams(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if noisy.SensableFraction >= quiet.SensableFraction {
		t.Errorf("noise did not degrade sensability: %g vs %g",
			noisy.SensableFraction, quiet.SensableFraction)
	}
}

func TestMonteCarloValidation(t *testing.T) {
	g, _ := code.NewGray(2, 8)
	q2, _ := physics.NewQuantizer(physics.DefaultPhysicalModel(), 2, 0, 1)
	q3, _ := physics.NewQuantizer(physics.DefaultPhysicalModel(), 3, 0, 1)
	plan, _ := mspt.NewPlanFromGenerator(g, 8, q2, 0)
	tr := DefaultTransistor()
	if _, err := MonteCarlo(context.Background(), tr, plan, q3, 0.05, 10, 5, stats.NewRNG(1).Substreams(), 0, 0); err == nil {
		t.Error("base mismatch accepted")
	}
	if _, err := MonteCarlo(context.Background(), tr, plan, q2, 0.05, 10, 0, stats.NewRNG(1).Substreams(), 0, 0); err == nil {
		t.Error("zero trials accepted")
	}
	bad := tr
	bad.GOn = -1
	if _, err := MonteCarlo(context.Background(), bad, plan, q2, 0.05, 10, 5, stats.NewRNG(1).Substreams(), 0, 0); err == nil {
		t.Error("invalid transistor accepted")
	}
}

// addressVoltages drives each mesowire to the upper edge of the addressed
// digit's threshold band (the band-edge scheme of MonteCarlo).
func addressVoltages(q *physics.Quantizer, w []int) []float64 {
	va := make([]float64, len(w))
	for j, digit := range w {
		va[j] = bandEdge(q, digit)
	}
	return va
}
