package experiments

import (
	"context"
	"strings"
	"testing"

	"nwdec/internal/code"
	"nwdec/internal/core"
)

func TestAblationArrangementGrayDominates(t *testing.T) {
	points, err := AblationArrangementWorkers(context.Background(), []uint64{1, 2, 3, 4, 5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 8 { // TC + 5 random + GC + BGC
		t.Fatalf("want 8 points, got %d", len(points))
	}
	var gray, balanced *ArrangementPoint
	for i := range points {
		switch points[i].Name {
		case "GC":
			gray = &points[i]
		case "BGC":
			balanced = &points[i]
		}
	}
	if gray == nil || balanced == nil {
		t.Fatal("Gray arrangements missing")
	}
	// Proposition 4/5: the Gray arrangements minimize ‖Σ‖₁ and Φ over
	// every other sampled arrangement of the same code space.
	for _, p := range points {
		if p.Name == "GC" || p.Name == "BGC" {
			continue
		}
		if gray.NuSum > p.NuSum || balanced.NuSum > p.NuSum {
			t.Errorf("arrangement %q has lower ‖Σ‖₁ than Gray: %d", p.Name, p.NuSum)
		}
		if gray.Phi > p.Phi || balanced.Phi > p.Phi {
			t.Errorf("arrangement %q has lower Φ than Gray: %d", p.Name, p.Phi)
		}
		if p.Yield > balanced.Yield {
			t.Errorf("arrangement %q out-yields BGC: %g > %g", p.Name, p.Yield, balanced.Yield)
		}
	}
	// Both Gray paths have identical total variability; balance only
	// redistributes it.
	if gray.NuSum != balanced.NuSum {
		t.Errorf("GC and BGC ‖Σ‖₁ differ: %d vs %d", gray.NuSum, balanced.NuSum)
	}
	if balanced.MaxNu > gray.MaxNu {
		t.Errorf("BGC max ν %d above GC %d", balanced.MaxNu, gray.MaxNu)
	}
	out := RenderAblationArrangement(points)
	if !strings.Contains(out, "random #1") || !strings.Contains(out, "BGC") {
		t.Error("render incomplete")
	}
}

func TestAblationMarginRobust(t *testing.T) {
	points, err := AblationMarginWorkers(context.Background(), []float64{0.4, 0.7, 1.0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		if p.YieldBG <= p.YieldTC {
			t.Errorf("factor %g: BGC advantage lost (TC %g, BGC %g)", p.Factor, p.YieldTC, p.YieldBG)
		}
	}
	// Yield rises with the margin for both codes.
	for i := 1; i < len(points); i++ {
		if points[i].YieldTC <= points[i-1].YieldTC || points[i].YieldBG <= points[i-1].YieldBG {
			t.Error("yield not increasing with margin factor")
		}
	}
	if !strings.Contains(RenderAblationMargin(points), "BGC gain") {
		t.Error("render incomplete")
	}
}

func TestAblationModelInvariance(t *testing.T) {
	rows, err := AblationModelWorkers(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("want 3 rows, got %d", len(rows))
	}
	for _, r := range rows {
		if !r.Invariant {
			t.Errorf("%v: Φ/‖Σ‖₁ depend on the threshold model (Φ %d vs %d, Σ %d vs %d)",
				r.CodeType, r.PhiPhysical, r.PhiTable, r.NuSumPhysical, r.NuSumTable)
		}
	}
	if !strings.Contains(RenderAblationModel(rows), "invariant") {
		t.Error("render incomplete")
	}
}

func TestAblationBoundaryMonotone(t *testing.T) {
	points, err := AblationBoundaryWorkers(context.Background(), []int{0, 1, 2, 4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(points); i++ {
		if points[i].Yield >= points[i-1].Yield {
			t.Error("yield not decreasing with boundary loss")
		}
		if points[i].BitArea <= points[i-1].BitArea {
			t.Error("bit area not increasing with boundary loss")
		}
	}
	if !strings.Contains(RenderAblationBoundary(points), "loss/boundary") {
		t.Error("render incomplete")
	}
}

func TestMultiValuedKeepsGrayAdvantage(t *testing.T) {
	points, err := MultiValued(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 15 { // 5 families x 3 logic valencies
		t.Fatalf("want 15 points, got %d", len(points))
	}
	byKey := make(map[string]MultiValuedPoint)
	for _, p := range points {
		byKey[p.Type.String()+"-"+itoa(p.Base)] = p
	}
	for _, base := range []int{2, 3, 4} {
		tc := byKey["TC-"+itoa(base)]
		gc := byKey["GC-"+itoa(base)]
		if gc.Yield <= tc.Yield {
			t.Errorf("base %d: GC yield %g not above TC %g", base, gc.Yield, tc.Yield)
		}
		if gc.Phi > tc.Phi {
			t.Errorf("base %d: GC Φ %d above TC %d", base, gc.Phi, tc.Phi)
		}
		hc := byKey["HC-"+itoa(base)]
		ahc := byKey["AHC-"+itoa(base)]
		if ahc.Yield < hc.Yield {
			t.Errorf("base %d: AHC yield %g below HC %g", base, ahc.Yield, hc.Yield)
		}
	}
	// Multi-valued decoders pay a Φ overhead for the tree code only.
	if byKey["TC-3"].Phi <= byKey["TC-2"].Phi*53/40-1 {
		t.Log("ternary TC overhead:", byKey["TC-3"].Phi)
	}
	if !strings.Contains(RenderMultiValued(points), "Extension") {
		t.Error("render incomplete")
	}
}

func TestScalingTradeoff(t *testing.T) {
	points, err := Scaling(core.Config{}, []int{10, 20, 32})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(points); i++ {
		if points[i].Yield >= points[i-1].Yield {
			t.Error("yield not decreasing with cave depth")
		}
		if points[i].Phi <= points[i-1].Phi {
			t.Error("Φ not growing with cave depth")
		}
	}
	if !strings.Contains(RenderScaling(points), "N wires") {
		t.Error("render incomplete")
	}
}

func TestRunnerIncludesAblations(t *testing.T) {
	ctx := context.Background()
	r := &Runner{}
	for _, name := range []string{"arrangement", "margin", "model", "boundary", "multivalued", "scaling", "noise", "readout", "temperature", "optarrange", "masks", "spares", "sneak"} {
		ds, err := r.Run(ctx, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(ds.Text()) == 0 {
			t.Errorf("%s: empty output", name)
		}
	}
}

func TestSweepFamilyErrorPropagation(t *testing.T) {
	units := familyGrid([]familyPanel{{tp: code.TypeGray, lengths: []int{7}}})
	if _, err := evalYieldPoints(context.Background(), core.Config{}, units, 1); err == nil {
		t.Error("invalid length not propagated")
	}
}
