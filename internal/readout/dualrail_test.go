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

func dualRailFixture(t *testing.T, tp code.Type, m, n int) (*mspt.Plan, *physics.Quantizer) {
	t.Helper()
	g, err := code.New(tp, 2, m)
	if err != nil {
		t.Fatal(err)
	}
	q, err := physics.NewQuantizer(physics.DefaultPhysicalModel(), 2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := mspt.NewPlanFromGenerator(g, n, q, 0)
	if err != nil {
		t.Fatal(err)
	}
	return plan, q
}

func TestDualRailGateVoltages(t *testing.T) {
	_, q := dualRailFixture(t, code.TypeGray, 6, 4)
	pattern := code.FromDigits(0, 1, 1)
	addr := code.FromDigits(0, 1, 0)
	va, err := DualRailGateVoltages(q, pattern, addr)
	if err != nil {
		t.Fatal(err)
	}
	// Matched digit 0: edge 0.5; matched digit 1: edge 1.0;
	// mismatched digit 1 (addr 0): its own lower edge 0.5 -> device off
	// (vt nominal 0.75 > 0.5).
	want := []float64{0.5, 1.0, 0.5}
	for j := range want {
		if math.Abs(va[j]-want[j]) > 1e-12 {
			t.Errorf("va[%d] = %g, want %g", j, va[j], want[j])
		}
	}
	if _, err := DualRailGateVoltages(q, pattern, code.FromDigits(0, 1)); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestDualRailBlocksEveryMismatch(t *testing.T) {
	// At nominal thresholds, an unselected wire's leak under dual-rail
	// drive is set by its blocking devices in series: every mismatched
	// position adds one subthreshold blocker, so the leak scales as
	// g_block / distance — and, crucially for noise robustness, a single
	// low-drifting region can no longer unblock a multi-mismatch wire.
	plan, q := dualRailFixture(t, code.TypeHot, 6, 12)
	tr := DefaultTransistor()
	vt := plan.SampleVT(stats.NewRNG(1), 0, q.VTOf)
	patterns := plan.Pattern()
	addr := patterns[0]
	leakAt := map[int]float64{}
	for k := 1; k < len(patterns); k++ {
		va, err := DualRailGateVoltages(q, patterns[k], addr)
		if err != nil {
			t.Fatal(err)
		}
		g := tr.WireConductance(vt[k], va)
		vaOwn, _ := DualRailGateVoltages(q, patterns[k], patterns[k])
		gOwn := tr.WireConductance(vt[k], vaOwn)
		dist := patterns[k].Hamming(addr)
		// At least ~2.5 decades of suppression from the first blocker.
		if g > gOwn/500 {
			t.Errorf("wire %d at distance %d leaks too much: %g vs own %g", k, dist, g, gOwn)
		}
		leakAt[dist] = g
	}
	// Series law: the distance-4 leak is about half the distance-2 leak.
	if g2, g4 := leakAt[2], leakAt[4]; g2 > 0 && g4 > 0 {
		ratio := g2 / g4
		if math.Abs(ratio-2) > 0.2 {
			t.Errorf("series suppression ratio %g, want ~2", ratio)
		}
	} else {
		t.Fatal("hot-code group lacks distance-2 and distance-4 wires")
	}
}

func TestDualRailRecoversHotCodeMargin(t *testing.T) {
	// The finding from the band-edge readout experiment: hot codes leak
	// through single blockers. Dual-rail drive must restore their sensing
	// margin well above the single-rail level.
	plan, q := dualRailFixture(t, code.TypeArrangedHot, 6, 20)
	tr := DefaultTransistor()
	single, err := MonteCarlo(context.Background(), tr, plan, q, 0.05, 10, 30, stats.NewRNG(3).Substreams(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	dual, err := MonteCarloDualRail(context.Background(), tr, plan, q, 0.05, 10, 30, stats.NewRNG(3).Substreams(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if dual.SensableFraction <= single.SensableFraction {
		t.Errorf("dual rail did not improve sensability: %g vs %g",
			dual.SensableFraction, single.SensableFraction)
	}
	if dual.Ratios.Median <= single.Ratios.Median {
		t.Errorf("dual rail median ratio %g not above single-rail %g",
			dual.Ratios.Median, single.Ratios.Median)
	}
	if dual.SensableFraction < 0.8 {
		t.Errorf("dual-rail AHC sensable fraction only %g", dual.SensableFraction)
	}
}

func TestReadGroupDualRailValidation(t *testing.T) {
	plan, q := dualRailFixture(t, code.TypeGray, 6, 4)
	tr := DefaultTransistor()
	vt := plan.SampleVT(stats.NewRNG(1), 0, q.VTOf)
	if _, err := tr.ReadGroupDualRail(q, plan.Pattern(), vt, 9); err == nil {
		t.Error("out-of-range target accepted")
	}
	if _, err := tr.ReadGroupDualRail(q, plan.Pattern()[:2], vt, 0); err == nil {
		t.Error("pattern/wire count mismatch accepted")
	}
}

func TestMonteCarloDualRailValidation(t *testing.T) {
	plan, q := dualRailFixture(t, code.TypeGray, 6, 4)
	tr := DefaultTransistor()
	if _, err := MonteCarloDualRail(context.Background(), tr, plan, q, 0.05, 10, 0, stats.NewRNG(1).Substreams(), 0, 0); err == nil {
		t.Error("zero trials accepted")
	}
	q3, _ := physics.NewQuantizer(physics.DefaultPhysicalModel(), 3, 0, 1)
	if _, err := MonteCarloDualRail(context.Background(), tr, plan, q3, 0.05, 10, 3, stats.NewRNG(1).Substreams(), 0, 0); err == nil {
		t.Error("base mismatch accepted")
	}
	bad := tr
	bad.GOn = 0
	if _, err := MonteCarloDualRail(context.Background(), bad, plan, q, 0.05, 10, 3, stats.NewRNG(1).Substreams(), 0, 0); err == nil {
		t.Error("invalid transistor accepted")
	}
}
