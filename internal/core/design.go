// Package core is the top of the library: the MSPT nanowire-decoder
// designer. Given a code family, a logic valency and a code length it
// assembles the full design — code arrangement, doping plan, fabrication
// complexity, variability, crossbar layout, yield and effective bit area —
// and offers parameter sweeps and an optimizer that picks the best decoder
// for a crossbar, reproducing the design-space exploration of Sec. 6 of the
// paper.
package core

import (
	"fmt"
	"math"
	"strings"

	"nwdec/internal/code"
	"nwdec/internal/geometry"
	"nwdec/internal/mspt"
	"nwdec/internal/nwerr"
	"nwdec/internal/physics"
	"nwdec/internal/yield"
)

// Config specifies one decoder design problem. The zero value of every
// field selects the paper's default platform; see WithDefaults.
type Config struct {
	// CodeType selects the code family (default: balanced Gray).
	CodeType code.Type
	// Base is the logic valency n (default 2).
	Base int
	// CodeLength is the total code length M (default 10 for tree-based
	// families, 6 for hot codes).
	CodeLength int
	// Spec is the crossbar organization (default: the paper's 16 kbit
	// platform with 20 wires per half cave).
	Spec geometry.CrossbarSpec
	// SigmaT is the per-dose threshold deviation in volts (default 50 mV).
	SigmaT float64
	// VMin, VMax bound the threshold-voltage window (default [0, 1] V: the
	// paper's 1 V supply).
	VMin, VMax float64
	// MarginFactor scales the geometric half-spacing margin (default
	// yield.DefaultMarginFactor).
	MarginFactor float64
	// Model maps doping to threshold voltage (default
	// physics.DefaultPhysicalModel).
	Model physics.VTModel
	// DoseUnit is the doping quantization in cm^-3 (default
	// mspt.DefaultDoseUnit).
	DoseUnit float64
}

// WithDefaults returns the configuration with every zero field replaced by
// the paper's default platform value.
func (c Config) WithDefaults() Config {
	if c.Base == 0 {
		c.Base = 2
	}
	if c.CodeLength == 0 {
		if c.CodeType.Reflected() {
			c.CodeLength = 10
		} else {
			c.CodeLength = 6
		}
	}
	if c.Spec.RawBits == 0 {
		c.Spec = geometry.DefaultCrossbarSpec()
	}
	if c.SigmaT == 0 {
		c.SigmaT = yield.DefaultSigmaT
	}
	if c.VMin == 0 && c.VMax == 0 {
		c.VMax = 1
	}
	if c.MarginFactor == 0 {
		c.MarginFactor = yield.DefaultMarginFactor
	}
	if c.Model == nil {
		c.Model = physics.DefaultPhysicalModel()
	}
	if c.DoseUnit == 0 {
		c.DoseUnit = mspt.DefaultDoseUnit
	}
	return c
}

// Design is a fully resolved decoder design with its complete analysis.
type Design struct {
	Config    Config
	Generator code.Generator
	Quantizer *physics.Quantizer
	Plan      *mspt.Plan
	Layout    *geometry.Layout
	Analyzer  yield.Analyzer

	// Phi is the fabrication complexity (extra litho/doping steps per half
	// cave).
	Phi int
	// AvgVariability is ‖Σ‖₁/(N·M) in V².
	AvgVariability float64
	// Crossbar is the yield / density / bit-area analysis.
	Crossbar yield.Crossbar
}

// NewDesign resolves a configuration into a complete decoder design. The
// code generator comes from the process-wide memoization cache: the same
// arrangement search (notably the balanced-Gray and arranged-hot
// backtracking) is re-derived by every figure and sweep, so it is paid once
// per (type, base, length) per process. NewDesign is a pure function of
// cfg, so every error it returns names a configuration that cannot be built
// and is classified nwerr.Invalid.
func NewDesign(cfg Config) (*Design, error) {
	cfg = cfg.WithDefaults()
	gen, err := code.Cached(cfg.CodeType, cfg.Base, cfg.CodeLength)
	if err != nil {
		return nil, nwerr.Invalidf("core: %w", err)
	}
	q, err := physics.NewQuantizer(cfg.Model, cfg.Base, cfg.VMin, cfg.VMax)
	if err != nil {
		return nil, nwerr.Invalidf("core: %w", err)
	}
	plan, err := mspt.NewPlanFromGenerator(gen, cfg.Spec.HalfCaveWires, q, cfg.DoseUnit)
	if err != nil {
		return nil, nwerr.Invalidf("core: %w", err)
	}
	layout, err := geometry.NewLayout(cfg.Spec, cfg.CodeLength, gen.SpaceSize())
	if err != nil {
		return nil, nwerr.Invalidf("core: %w", err)
	}
	if !(cfg.MarginFactor > 0) || math.IsInf(cfg.MarginFactor, 0) {
		return nil, nwerr.Invalidf("core: margin factor must be positive and finite, got %g", cfg.MarginFactor)
	}
	analyzer := yield.Analyzer{SigmaT: cfg.SigmaT, Margin: q.Margin() * cfg.MarginFactor}
	if err := analyzer.Validate(); err != nil {
		return nil, nwerr.Invalidf("core: %w", err)
	}
	d := &Design{
		Config:         cfg,
		Generator:      gen,
		Quantizer:      q,
		Plan:           plan,
		Layout:         layout,
		Analyzer:       analyzer,
		Phi:            plan.Phi(),
		AvgVariability: plan.AvgVariability(cfg.SigmaT),
	}
	d.Crossbar = analyzer.AnalyzeCrossbar(plan, layout)
	return d, nil
}

// Yield returns the cave yield of the design.
func (d *Design) Yield() float64 { return d.Crossbar.Yield }

// BitArea returns the effective bit area in nm².
func (d *Design) BitArea() float64 { return d.Crossbar.BitArea }

// Report renders a human-readable design summary.
func (d *Design) Report() string {
	var sb strings.Builder
	cfg := d.Config
	fmt.Fprintf(&sb, "MSPT nanowire decoder design — %s, base %d, M=%d\n",
		cfg.CodeType, cfg.Base, cfg.CodeLength)
	fmt.Fprintf(&sb, "  crossbar: %d raw bits, %d wires/layer, %d caves, N=%d wires/half-cave\n",
		cfg.Spec.RawBits, d.Layout.WiresPerLayer, d.Layout.Caves, cfg.Spec.HalfCaveWires)
	fmt.Fprintf(&sb, "  code space Ω=%d, contact groups/half-cave=%d (%d wires each, %d lost)\n",
		d.Generator.SpaceSize(), d.Layout.Contact.Groups, d.Layout.Contact.GroupWires, d.Layout.Contact.Lost())
	fmt.Fprintf(&sb, "  fabrication complexity Φ=%d steps (%.2f per wire)\n",
		d.Phi, float64(d.Phi)/float64(cfg.Spec.HalfCaveWires))
	fmt.Fprintf(&sb, "  avg variability ‖Σ‖₁/(N·M) = %.4g V² (max ν=%d)\n",
		d.AvgVariability, d.Plan.MaxNu())
	fmt.Fprintf(&sb, "  cave yield Y=%.1f%%, D_EFF=%.0f bits, bit area=%.1f nm²\n",
		100*d.Crossbar.Yield, d.Crossbar.EffectiveBits, d.Crossbar.BitArea)
	fmt.Fprintf(&sb, "  geometry: side %.0f nm (array %.0f + decoder %.0f + contacts %.0f)\n",
		d.Layout.Side, d.Layout.ArraySpan, d.Layout.DecoderSpan, d.Layout.ContactSpan)
	return sb.String()
}
