package nwdec

// End-to-end integration tests: each test drives the complete pipeline —
// code generation, doping plan, fabrication-flow replay, layout, analytic
// yield, Monte-Carlo fabrication, functional memory operation — through the
// public package APIs, the way the examples and CLIs use them.

import (
	"context"
	"math"
	"strings"
	"testing"

	"nwdec/internal/code"
	"nwdec/internal/core"
	"nwdec/internal/crossbar"
	"nwdec/internal/engine"
	"nwdec/internal/experiments"
	"nwdec/internal/report"
	"nwdec/internal/stats"
	"nwdec/internal/yield"
)

func TestEndToEndDesignFabricateOperate(t *testing.T) {
	for _, tp := range code.AllTypes() {
		m := 10
		if !tp.Reflected() {
			m = 6
		}
		design, err := core.NewDesign(core.Config{CodeType: tp, CodeLength: m})
		if err != nil {
			t.Fatalf("%v: design: %v", tp, err)
		}
		// The matrix algebra and the physical flow must agree.
		if err := design.Plan.Verify(); err != nil {
			t.Fatalf("%v: flow verification: %v", tp, err)
		}
		// The decoder must uniquely address every wire nominally.
		dec, err := crossbar.NewDecoder(design.Plan, design.Quantizer)
		if err != nil {
			t.Fatalf("%v: decoder: %v", tp, err)
		}
		if err := crossbar.VerifyDecoder(dec, design.Layout.Contact); err != nil {
			t.Fatalf("%v: uniqueness: %v", tp, err)
		}
		// Fabricate and operate a memory.
		ctx, rng := context.Background(), stats.NewRNG(77)
		rows, err := crossbar.BuildLayerWorkers(ctx, dec, design.Layout.Contact,
			design.Layout.WiresPerLayer, design.Config.SigmaT, rng, 0)
		if err != nil {
			t.Fatalf("%v: rows: %v", tp, err)
		}
		cols, err := crossbar.BuildLayerWorkers(ctx, dec, design.Layout.Contact,
			design.Layout.WiresPerLayer, design.Config.SigmaT, rng, 0)
		if err != nil {
			t.Fatalf("%v: cols: %v", tp, err)
		}
		mem := crossbar.NewMemory(rows, cols)
		lm := crossbar.NewLogicalMemory(mem)
		if lm.Capacity() == 0 {
			t.Fatalf("%v: fabricated memory has no usable bits", tp)
		}
		payload := []byte("integration")
		if err := lm.StoreBytes(0, payload); err != nil {
			t.Fatalf("%v: store: %v", tp, err)
		}
		back, err := lm.LoadBytes(0, len(payload))
		if err != nil {
			t.Fatalf("%v: load: %v", tp, err)
		}
		if string(back) != string(payload) {
			t.Fatalf("%v: payload corrupted: %q", tp, back)
		}
		// MC usable fraction within a sane band of the analytic value.
		if diff := math.Abs(mem.UsableFraction() - design.Yield()*design.Yield()); diff > 0.15 {
			t.Errorf("%v: MC fraction %.2f far from analytic %.2f",
				tp, mem.UsableFraction(), design.Yield()*design.Yield())
		}
	}
}

func TestEndToEndOptimizerAgreesWithFig8(t *testing.T) {
	best, err := core.Optimize(context.Background(), core.Config{}, code.AllTypes(), []int{4, 6, 8, 10}, core.MinBitArea, 0)
	if err != nil {
		t.Fatal(err)
	}
	points, err := experiments.Fig8Workers(context.Background(), core.Config{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	min := experiments.Fig8MinBitArea(points)
	if best.Config.CodeType != min.Type || best.Config.CodeLength != min.Length {
		t.Errorf("optimizer chose %v M=%d, Fig. 8 minimum is %v M=%d",
			best.Config.CodeType, best.Config.CodeLength, min.Type, min.Length)
	}
	if math.Abs(best.BitArea()-min.BitArea) > 1e-9 {
		t.Errorf("bit areas disagree: %g vs %g", best.BitArea(), min.BitArea)
	}
}

func TestEndToEndReportIsSelfConsistent(t *testing.T) {
	eng, err := engine.New(engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := report.Generate(context.Background(), eng, engine.Request{Seed: experiments.DefaultSeed, Trials: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Every figure section must be present and no claim may fail.
	for _, section := range []string{"Fig. 5", "Fig. 6", "Fig. 7", "Fig. 8", "Headline"} {
		if !strings.Contains(doc, section) {
			t.Errorf("report missing section %s", section)
		}
	}
	if strings.Contains(doc, "✘") || strings.Contains(doc, "WARNING") {
		t.Error("report contains failures")
	}
}

func TestEndToEndAnalyticPipelineConsistency(t *testing.T) {
	// Rebuild the Fig. 7 BGC M=10 point from the raw packages and compare
	// with the experiment harness output.
	design, err := core.NewDesign(core.Config{CodeType: code.TypeBalancedGray, CodeLength: 10})
	if err != nil {
		t.Fatal(err)
	}
	a := yield.Analyzer{SigmaT: design.Config.SigmaT,
		Margin: design.Quantizer.Margin() * design.Config.MarginFactor}
	manual := a.AnalyzeCrossbar(design.Plan, design.Layout)
	points, err := experiments.Fig7Workers(context.Background(), core.Config{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		if p.Type == code.TypeBalancedGray && p.Length == 10 {
			if math.Abs(p.Yield-manual.Yield) > 1e-12 {
				t.Errorf("harness yield %g != manual %g", p.Yield, manual.Yield)
			}
			if math.Abs(p.BitArea-manual.BitArea) > 1e-9 {
				t.Errorf("harness area %g != manual %g", p.BitArea, manual.BitArea)
			}
			return
		}
	}
	t.Fatal("BGC M=10 point missing from Fig. 7")
}

func TestEndToEndDeterminism(t *testing.T) {
	// The whole Monte-Carlo pipeline must be bit-reproducible from a seed.
	run := func() float64 {
		pts, err := experiments.MonteCarloWorkers(context.Background(), core.Config{}, 2, 123, 0)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, p := range pts {
			sum += p.MC
		}
		return sum
	}
	if a, b := run(), run(); a != b {
		t.Errorf("Monte-Carlo pipeline not deterministic: %g vs %g", a, b)
	}
}
