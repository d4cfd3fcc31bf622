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

// TestFabricateDeterministic: nwmem's session is a pure function of its
// seed only if two fabrications from the same seed agree and leave the
// RNG at the same point, so fault injection continues one stream.
func TestFabricateDeterministic(t *testing.T) {
	d, err := NewDesign(Config{})
	if err != nil {
		t.Fatal(err)
	}
	rngA, rngB := stats.NewRNG(7), stats.NewRNG(7)
	a, err := d.FabricateWorkers(context.Background(), rngA, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.FabricateWorkers(context.Background(), rngB, 1)
	if err != nil {
		t.Fatal(err)
	}
	if af, bf := a.UsableFraction(), b.UsableFraction(); af != bf {
		t.Errorf("same-seed fabrications differ: usable %v vs %v", af, bf)
	}
	for i := 0; i < 8; i++ {
		if av, bv := rngA.Intn(1<<20), rngB.Intn(1<<20); av != bv {
			t.Fatalf("post-fabrication RNG streams diverge at draw %d: %d vs %d", i, av, bv)
		}
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
