package yield

import (
	"math"
	"testing"
	"testing/quick"

	"nwdec/internal/code"
	"nwdec/internal/geometry"
	"nwdec/internal/mspt"
	"nwdec/internal/physics"
)

func testPlan(t *testing.T, gen code.Generator, n int) *mspt.Plan {
	t.Helper()
	q, err := physics.NewQuantizer(physics.DefaultPhysicalModel(), gen.Base(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := mspt.NewPlanFromGenerator(gen, n, q, 0)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewAnalyzer(t *testing.T) {
	a, err := NewAnalyzer(DefaultSigmaT, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.Margin-0.25*DefaultMarginFactor) > 1e-12 {
		t.Errorf("margin = %g", a.Margin)
	}
	if _, err := NewAnalyzer(0, 0.25); err == nil {
		t.Error("zero sigma accepted")
	}
	if _, err := NewAnalyzer(0.05, 0); err == nil {
		t.Error("zero margin accepted")
	}
}

func TestRegionProb(t *testing.T) {
	a := Analyzer{SigmaT: 0.05, Margin: 0.05}
	// nu=1: one-sigma two-sided ~ 0.6827.
	if got := a.RegionProb(1); math.Abs(got-0.6826895) > 1e-6 {
		t.Errorf("RegionProb(1) = %g", got)
	}
	if got := a.RegionProb(0); got != 1 {
		t.Errorf("RegionProb(0) = %g, want 1", got)
	}
	// Monotone decreasing in nu.
	prev := 2.0
	for nu := 1; nu <= 30; nu++ {
		p := a.RegionProb(nu)
		if p >= prev {
			t.Fatalf("RegionProb not decreasing at nu=%d", nu)
		}
		if p <= 0 || p > 1 {
			t.Fatalf("RegionProb(%d) = %g out of range", nu, p)
		}
		prev = p
	}
}

func TestWireProbProduct(t *testing.T) {
	a := Analyzer{SigmaT: 0.05, Margin: 0.1}
	nus := []int{1, 2, 3}
	want := a.RegionProb(1) * a.RegionProb(2) * a.RegionProb(3)
	if got := a.WireProb(nus); math.Abs(got-want) > 1e-15 {
		t.Errorf("WireProb = %g, want %g", got, want)
	}
	if a.WireProb(nil) != 1 {
		t.Error("empty wire should have probability 1")
	}
}

func TestWireProbsOrdering(t *testing.T) {
	// Later-defined nanowires accumulate fewer doses, so addressability is
	// non-decreasing along the definition order for Gray plans.
	g, _ := code.NewGray(2, 10)
	plan := testPlan(t, g, 16)
	a := Analyzer{SigmaT: DefaultSigmaT, Margin: 0.25}
	probs := a.WireProbs(plan)
	if len(probs) != 16 {
		t.Fatalf("probs len = %d", len(probs))
	}
	for i := 1; i < len(probs); i++ {
		if probs[i] < probs[i-1]-1e-12 {
			t.Errorf("probability decreased at wire %d: %g < %g", i, probs[i], probs[i-1])
		}
	}
}

func TestAnalyzeHalfCaveLayoutLoss(t *testing.T) {
	g, _ := code.NewGray(2, 10)
	plan := testPlan(t, g, 16)
	a := Analyzer{SigmaT: DefaultSigmaT, Margin: 0.25}
	noLoss := a.AnalyzeHalfCave(plan, geometry.ContactPlan{Groups: 1})
	withLoss := a.AnalyzeHalfCave(plan, geometry.ContactPlan{Groups: 2, BoundaryLost: 2})
	if noLoss.Yield <= withLoss.Yield {
		t.Errorf("boundary loss did not reduce yield: %g vs %g", noLoss.Yield, withLoss.Yield)
	}
	wantRatio := 14.0 / 16.0
	if math.Abs(withLoss.Yield/noLoss.Yield-wantRatio) > 1e-9 {
		t.Errorf("loss ratio = %g, want %g", withLoss.Yield/noLoss.Yield, wantRatio)
	}
	// Pathological loss larger than the cave clamps to zero yield.
	clamped := a.AnalyzeHalfCave(plan, geometry.ContactPlan{Groups: 9, BoundaryLost: 99})
	if clamped.Yield != 0 {
		t.Errorf("over-lost cave yield = %g, want 0", clamped.Yield)
	}
}

func TestBalancedBeatsPlainGrayYield(t *testing.T) {
	// Same total variability, better distribution: the balanced Gray plan
	// must not yield worse than the plain Gray plan (Fig. 7).
	const n, m = 20, 10
	gray, _ := code.NewGray(2, m)
	bal, _ := code.NewBalancedGray(2, m)
	pg := testPlan(t, gray, n)
	pb := testPlan(t, bal, n)
	a := Analyzer{SigmaT: DefaultSigmaT, Margin: 0.25}
	yg := a.AnalyzeHalfCave(pg, geometry.ContactPlan{Groups: 1}).Yield
	yb := a.AnalyzeHalfCave(pb, geometry.ContactPlan{Groups: 1}).Yield
	if yb < yg-1e-12 {
		t.Errorf("balanced Gray yield %g below plain Gray %g", yb, yg)
	}
}

func TestGrayBeatsTreeYield(t *testing.T) {
	const n, m = 16, 8
	tree, _ := code.NewTree(2, m)
	gray, _ := code.NewGray(2, m)
	pt := testPlan(t, tree, n)
	pg := testPlan(t, gray, n)
	a := Analyzer{SigmaT: DefaultSigmaT, Margin: 0.25}
	yt := a.AnalyzeHalfCave(pt, geometry.ContactPlan{Groups: 1}).Yield
	yg := a.AnalyzeHalfCave(pg, geometry.ContactPlan{Groups: 1}).Yield
	if yg <= yt {
		t.Errorf("Gray yield %g not above tree yield %g", yg, yt)
	}
}

func TestAnalyzeCrossbar(t *testing.T) {
	g, _ := code.NewGray(2, 10)
	plan := testPlan(t, g, 16)
	layout, err := geometry.NewLayout(geometry.DefaultCrossbarSpec(), 10, g.SpaceSize())
	if err != nil {
		t.Fatal(err)
	}
	a := Analyzer{SigmaT: DefaultSigmaT, Margin: 0.25}
	res := a.AnalyzeCrossbar(plan, layout)
	if res.Yield <= 0 || res.Yield > 1 {
		t.Fatalf("yield = %g out of range", res.Yield)
	}
	wantBits := 16384 * res.Yield * res.Yield
	if math.Abs(res.EffectiveBits-wantBits) > 1e-9 {
		t.Errorf("EffectiveBits = %g, want %g", res.EffectiveBits, wantBits)
	}
	wantArea := layout.Area() / wantBits
	if math.Abs(res.BitArea-wantArea) > 1e-9 {
		t.Errorf("BitArea = %g, want %g", res.BitArea, wantArea)
	}
}

func TestYieldBoundsProperty(t *testing.T) {
	f := func(nRaw, mRaw uint8, marginRaw uint16) bool {
		n := int(nRaw%24) + 2
		m := (int(mRaw%4) + 2) * 2 // 4..10
		margin := float64(marginRaw%500)/2000 + 0.01
		g, err := code.NewGray(2, m)
		if err != nil {
			return false
		}
		q, err := physics.NewQuantizer(physics.DefaultPhysicalModel(), 2, 0, 1)
		if err != nil {
			return false
		}
		plan, err := mspt.NewPlanFromGenerator(g, n, q, 0)
		if err != nil {
			return false
		}
		a := Analyzer{SigmaT: DefaultSigmaT, Margin: margin}
		hc := a.AnalyzeHalfCave(plan, geometry.ContactPlan{Groups: 1})
		return hc.Yield >= 0 && hc.Yield <= 1 && hc.MeanProb >= hc.Yield-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestWiderMarginNeverHurts(t *testing.T) {
	g, _ := code.NewGray(2, 8)
	plan := testPlan(t, g, 12)
	small := Analyzer{SigmaT: DefaultSigmaT, Margin: 0.05}
	large := Analyzer{SigmaT: DefaultSigmaT, Margin: 0.2}
	ys := small.AnalyzeHalfCave(plan, geometry.ContactPlan{Groups: 1}).Yield
	yl := large.AnalyzeHalfCave(plan, geometry.ContactPlan{Groups: 1}).Yield
	if yl < ys {
		t.Errorf("larger margin reduced yield: %g < %g", yl, ys)
	}
}

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

// TestYieldDependsOnMarginOverSigma checks that the yield is a function of
// margin/σ_T alone: scaling both by the same factor leaves it unchanged,
// so its log-sensitivities to the two are equal and opposite.
func TestYieldDependsOnMarginOverSigma(t *testing.T) {
	g, _ := code.NewGray(2, 10)
	plan := testPlan(t, g, 20)
	contact := geometry.ContactPlan{Groups: 1}
	base := Analyzer{SigmaT: DefaultSigmaT, Margin: 0.25}.AnalyzeHalfCave(plan, contact).Yield
	for _, k := range []float64{0.5, 2, 3} {
		y := Analyzer{SigmaT: DefaultSigmaT * k, Margin: 0.25 * k}.AnalyzeHalfCave(plan, contact).Yield
		if math.Abs(y-base) > 1e-12 {
			t.Errorf("scaling σ_T and margin by %g moved the yield from %g to %g", k, base, y)
		}
	}
}
