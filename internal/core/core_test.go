package core

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"nwdec/internal/code"
	"nwdec/internal/geometry"
	"nwdec/internal/nwerr"
	"nwdec/internal/yield"
)

func TestWithDefaults(t *testing.T) {
	cfg := Config{}.WithDefaults()
	if cfg.Base != 2 || cfg.CodeLength != 10 {
		t.Errorf("defaults: base %d, M %d", cfg.Base, cfg.CodeLength)
	}
	if cfg.Spec.RawBits != 16384 || cfg.Spec.HalfCaveWires != 20 {
		t.Errorf("default spec: %+v", cfg.Spec)
	}
	if cfg.SigmaT != yield.DefaultSigmaT || cfg.VMax != 1 {
		t.Errorf("default sigma/window: %g %g", cfg.SigmaT, cfg.VMax)
	}
	if cfg.Model == nil || cfg.DoseUnit == 0 || cfg.MarginFactor == 0 {
		t.Error("default model/unit/margin missing")
	}
	hot := Config{CodeType: code.TypeHot}.WithDefaults()
	if hot.CodeLength != 6 {
		t.Errorf("hot default length = %d, want 6", hot.CodeLength)
	}
}

func TestNewDesignDefaultsProducePlausibleDecoder(t *testing.T) {
	d, err := NewDesign(Config{CodeType: code.TypeBalancedGray})
	if err != nil {
		t.Fatal(err)
	}
	if d.Yield() <= 0.5 || d.Yield() > 1 {
		t.Errorf("default BGC yield %g out of expected range", d.Yield())
	}
	if d.BitArea() < 100 || d.BitArea() > 500 {
		t.Errorf("default BGC bit area %g nm² implausible", d.BitArea())
	}
	if d.Phi != 2*d.Config.Spec.HalfCaveWires {
		t.Errorf("binary reflected Φ = %d, want 2N", d.Phi)
	}
}

func TestNewDesignErrors(t *testing.T) {
	if _, err := NewDesign(Config{CodeType: code.TypeTree, CodeLength: 7}); err == nil {
		t.Error("odd tree length accepted")
	}
	if _, err := NewDesign(Config{CodeType: code.TypeHot, CodeLength: 7}); err == nil {
		t.Error("hot length not divisible by base accepted")
	}
	if _, err := NewDesign(Config{Base: 1}); err == nil {
		t.Error("base 1 accepted")
	}
	bad := Config{}
	bad.Spec = geometry.DefaultCrossbarSpec()
	bad.Spec.NanowirePitch = 0
	if _, err := NewDesign(bad); err == nil {
		t.Error("broken geometry accepted")
	}
	// The message names the factor the caller passed, not the margin in
	// volts derived from it.
	_, err := NewDesign(Config{MarginFactor: -1})
	if err == nil || err.Error() != "core: margin factor must be positive and finite, got -1" {
		t.Errorf("margin factor -1: %v", err)
	}
	if !errors.Is(err, nwerr.ErrInvalid) {
		t.Errorf("margin factor -1: %v is not Invalid-class", err)
	}
}

func TestDesignReportMentionsKeyNumbers(t *testing.T) {
	d, err := NewDesign(Config{CodeType: code.TypeGray, CodeLength: 8})
	if err != nil {
		t.Fatal(err)
	}
	r := d.Report()
	for _, want := range []string{"GC", "M=8", "Φ", "yield", "bit area"} {
		if !strings.Contains(r, want) {
			t.Errorf("report missing %q:\n%s", want, r)
		}
	}
}

func TestPaperOrderingHolds(t *testing.T) {
	// The paper's qualitative result at M=8: BGC >= GC >= TC in yield, and
	// the same ordering reversed in bit area.
	var designs []*Design
	for _, tp := range []code.Type{code.TypeTree, code.TypeGray, code.TypeBalancedGray} {
		d, err := NewDesign(Config{CodeType: tp, CodeLength: 8})
		if err != nil {
			t.Fatal(err)
		}
		designs = append(designs, d)
	}
	tc, gc, bgc := designs[0], designs[1], designs[2]
	if !(bgc.Yield() >= gc.Yield() && gc.Yield() > tc.Yield()) {
		t.Errorf("yield ordering violated: TC %g, GC %g, BGC %g",
			tc.Yield(), gc.Yield(), bgc.Yield())
	}
	if !(bgc.BitArea() <= gc.BitArea() && gc.BitArea() < tc.BitArea()) {
		t.Errorf("area ordering violated: TC %g, GC %g, BGC %g",
			tc.BitArea(), gc.BitArea(), bgc.BitArea())
	}
}

func TestSweepSkipsInvalidLengths(t *testing.T) {
	pts, err := SweepWorkers(context.Background(), Config{}, []code.Type{code.TypeGray, code.TypeHot}, []int{4, 6, 7, 8}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.Length == 7 {
			t.Error("length 7 should be skipped for both families")
		}
	}
	// Gray: 4,6,8; hot: 4,6,8 => 6 points.
	if len(pts) != 6 {
		t.Errorf("got %d sweep points, want 6", len(pts))
	}
}

func TestSweepAllInvalid(t *testing.T) {
	if _, err := SweepWorkers(context.Background(), Config{}, []code.Type{code.TypeGray}, []int{3, 5}, 0); err == nil {
		t.Error("all-invalid sweep should error")
	}
}

func TestOptimizeMinBitArea(t *testing.T) {
	types := []code.Type{code.TypeTree, code.TypeGray, code.TypeBalancedGray, code.TypeHot, code.TypeArrangedHot}
	lengths := []int{4, 6, 8, 10}
	best, err := Optimize(context.Background(), Config{}, types, lengths, MinBitArea, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's winners: an optimized code (BGC or AHC).
	if tp := best.Config.CodeType; tp != code.TypeBalancedGray && tp != code.TypeArrangedHot {
		t.Errorf("optimizer picked %v, expected an optimized code family", tp)
	}
	// Exhaustively confirm optimality.
	pts, err := SweepWorkers(context.Background(), Config{}, types, lengths, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.Design.BitArea() < best.BitArea()-1e-9 {
			t.Errorf("optimizer missed better design %v M=%d (%g < %g)",
				p.Type, p.Length, p.Design.BitArea(), best.BitArea())
		}
	}
}

func TestOptimizeMaxYield(t *testing.T) {
	types := []code.Type{code.TypeTree, code.TypeBalancedGray}
	best, err := Optimize(context.Background(), Config{}, types, []int{6, 8, 10}, MaxYield, 0)
	if err != nil {
		t.Fatal(err)
	}
	if best.Config.CodeType != code.TypeBalancedGray {
		t.Errorf("max-yield winner %v, want BGC", best.Config.CodeType)
	}
	pts, _ := SweepWorkers(context.Background(), Config{}, types, []int{6, 8, 10}, 0)
	for _, p := range pts {
		if p.Design.Yield() > best.Yield()+1e-12 {
			t.Error("optimizer missed higher-yield design")
		}
	}
}

func TestOptimizeMinPhi(t *testing.T) {
	// Ternary logic: Gray must win the Φ objective against the tree code.
	cfg := Config{Base: 3}
	best, err := Optimize(context.Background(), cfg, []code.Type{code.TypeTree, code.TypeGray}, []int{6, 8}, MinPhi, 0)
	if err != nil {
		t.Fatal(err)
	}
	if best.Config.CodeType != code.TypeGray {
		t.Errorf("min-Φ winner %v, want GC", best.Config.CodeType)
	}
}

func TestParseObjective(t *testing.T) {
	for name, want := range map[string]Objective{"": MinBitArea, "area": MinBitArea, "yield": MaxYield, "phi": MinPhi} {
		if got, err := ParseObjective(name); err != nil || got != want {
			t.Errorf("ParseObjective(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	_, err := ParseObjective("speed")
	if !nwerr.IsInvalid(err) || err.Error() != `unknown objective "speed" (want area, yield or phi)` {
		t.Errorf("ParseObjective(speed) error = %v, want the Invalid-class objective list", err)
	}
}

func TestValidLength(t *testing.T) {
	if !ValidLength(code.TypeGray, 2, 8) || ValidLength(code.TypeGray, 2, 7) {
		t.Error("tree-family length rule wrong")
	}
	if !ValidLength(code.TypeHot, 3, 6) || ValidLength(code.TypeHot, 3, 8) {
		t.Error("hot-family length rule wrong")
	}
	if ValidLength(code.TypeGray, 2, 0) {
		t.Error("zero length accepted")
	}
	// Base defaulting inside validLength.
	if !ValidLength(code.TypeHot, 0, 6) {
		t.Error("default base not applied")
	}
}

func TestYieldAndAreaConsistent(t *testing.T) {
	d, err := NewDesign(Config{CodeType: code.TypeGray})
	if err != nil {
		t.Fatal(err)
	}
	wantArea := d.Layout.Area() / (float64(d.Config.Spec.RawBits) * d.Yield() * d.Yield())
	if math.Abs(d.BitArea()-wantArea) > 1e-9 {
		t.Errorf("bit area %g inconsistent with yield: want %g", d.BitArea(), wantArea)
	}
}
