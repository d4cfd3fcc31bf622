package core

import (
	"context"
	"math"
	"testing"

	"nwdec/internal/code"
	"nwdec/internal/crossbar"
	"nwdec/internal/stats"
)

func TestDesignFabricate(t *testing.T) {
	d, err := NewDesign(Config{CodeType: code.TypeBalancedGray})
	if err != nil {
		t.Fatal(err)
	}
	mem, err := d.FabricateWorkers(context.Background(), stats.NewRNG(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	r, c := mem.Size()
	if r != d.Layout.WiresPerLayer || c != d.Layout.WiresPerLayer {
		t.Errorf("memory size %dx%d", r, c)
	}
	if mem.UsableFraction() <= 0 {
		t.Error("no usable crosspoints")
	}
}

func TestDesignMonteCarloYieldMatchesAnalytic(t *testing.T) {
	d, err := NewDesign(Config{CodeType: code.TypeBalancedGray})
	if err != nil {
		t.Fatal(err)
	}
	mc, err := d.MonteCarloYieldWorkers(context.Background(), 5, 17, 0)
	if err != nil {
		t.Fatal(err)
	}
	analytic := d.Yield() * d.Yield()
	if math.Abs(mc-analytic) > 0.1 {
		t.Errorf("MC %g far from analytic %g", mc, analytic)
	}
	if _, err := d.MonteCarloYieldWorkers(context.Background(), 0, 1, 0); err == nil {
		t.Error("zero trials accepted")
	}
}

func TestDesignMonteCarloDeterministic(t *testing.T) {
	d, _ := NewDesign(Config{CodeType: code.TypeGray})
	a, err := d.MonteCarloYieldWorkers(context.Background(), 3, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.MonteCarloYieldWorkers(context.Background(), 3, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("nondeterministic MC yield: %g vs %g", a, b)
	}
}

func TestDesignVerifyUniqueAddressing(t *testing.T) {
	for _, tp := range code.AllTypes() {
		m := 10
		if !tp.Reflected() {
			m = 6
		}
		d, err := NewDesign(Config{CodeType: tp, CodeLength: m})
		if err != nil {
			t.Fatal(err)
		}
		dec, err := d.Decoder()
		if err != nil {
			t.Fatal(err)
		}
		if err := crossbar.VerifyDecoder(dec, d.Layout.Contact); err != nil {
			t.Errorf("%v: %v", tp, err)
		}
	}
}
