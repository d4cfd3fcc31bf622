package geometry

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultParams(t *testing.T) {
	p := DefaultParams()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.LithoPitch != 32 || p.NanowirePitch != 10 {
		t.Errorf("paper pitches wrong: %+v", p)
	}
	// Minimum contact group: ceil(1.5*32/10) = 5 wires.
	if got := p.MinGroupWires(); got != 5 {
		t.Errorf("MinGroupWires = %d, want 5", got)
	}
	// Default boundary loss: round(32/20) = 2 wires per boundary.
	if got := p.boundaryLoss(); got != 2 {
		t.Errorf("boundaryLoss = %d, want 2", got)
	}
}

func TestParamsValidate(t *testing.T) {
	bad := []Params{
		{LithoPitch: 0, NanowirePitch: 10, MinContactFactor: 1.5},
		{LithoPitch: 32, NanowirePitch: -1, MinContactFactor: 1.5},
		{LithoPitch: 10, NanowirePitch: 32, MinContactFactor: 1.5},
		{LithoPitch: 32, NanowirePitch: 10, MinContactFactor: 0.5},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted: %+v", i, p)
		}
	}
}

func TestPlanContactsLargeSpace(t *testing.T) {
	// Ω >= N: a single group, no losses.
	p := DefaultParams()
	plan, err := p.PlanContacts(16, 32)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Groups != 1 || plan.GroupWires != 16 || plan.Lost() != 0 {
		t.Errorf("plan = %+v", plan)
	}
}

func TestPlanContactsSmallSpace(t *testing.T) {
	// Ω = 6 < N = 16: groups of 6, 3 groups, 2 internal boundaries.
	p := DefaultParams()
	plan, err := p.PlanContacts(16, 6)
	if err != nil {
		t.Fatal(err)
	}
	if plan.GroupWires != 6 || plan.Groups != 3 {
		t.Errorf("plan = %+v", plan)
	}
	if plan.BoundaryLost != 4 { // 2 boundaries x 2 wires
		t.Errorf("BoundaryLost = %d, want 4", plan.BoundaryLost)
	}
	if plan.DuplicateLost != 0 {
		t.Errorf("DuplicateLost = %d, want 0", plan.DuplicateLost)
	}
}

func TestPlanContactsTinySpaceDuplicates(t *testing.T) {
	// Ω = 2 below the 5-wire lithographic minimum: groups widen to 5 and
	// 3 wires per group carry duplicate codes.
	p := DefaultParams()
	plan, err := p.PlanContacts(20, 2)
	if err != nil {
		t.Fatal(err)
	}
	if plan.GroupWires != 5 || plan.Groups != 4 {
		t.Errorf("plan = %+v", plan)
	}
	if plan.DuplicateLost != 12 { // 3 duplicates x 4 groups
		t.Errorf("DuplicateLost = %d, want 12", plan.DuplicateLost)
	}
	if plan.BoundaryLost != 6 { // 3 boundaries x 2
		t.Errorf("BoundaryLost = %d, want 6", plan.BoundaryLost)
	}
}

func TestPlanContactsLossesNeverExceedWires(t *testing.T) {
	f := func(nRaw, omegaRaw uint8) bool {
		n := int(nRaw%60) + 1
		omega := int(omegaRaw%100) + 1
		plan, err := DefaultParams().PlanContacts(n, omega)
		if err != nil {
			return false
		}
		return plan.Lost() <= n && plan.Groups >= 1 && plan.GroupWires >= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPlanContactsValidation(t *testing.T) {
	p := DefaultParams()
	if _, err := p.PlanContacts(0, 4); err == nil {
		t.Error("zero wires accepted")
	}
	if _, err := p.PlanContacts(10, 0); err == nil {
		t.Error("zero space accepted")
	}
}

func TestNewLayoutPaperPlatform(t *testing.T) {
	spec := DefaultCrossbarSpec()
	l, err := NewLayout(spec, 10, 32)
	if err != nil {
		t.Fatal(err)
	}
	if l.WiresPerLayer != 128 {
		t.Errorf("WiresPerLayer = %d, want 128 (sqrt of 16384)", l.WiresPerLayer)
	}
	if l.Caves != 4 {
		t.Errorf("Caves = %d, want 4 (ceil of 128 wires / 40 per cave)", l.Caves)
	}
	if math.Abs(l.ArraySpan-1280) > 1e-9 {
		t.Errorf("ArraySpan = %g, want 1280 nm", l.ArraySpan)
	}
	if math.Abs(l.DecoderSpan-320) > 1e-9 {
		t.Errorf("DecoderSpan = %g, want 320 nm", l.DecoderSpan)
	}
	if math.Abs(l.ContactSpan-48) > 1e-9 { // one group per half cave
		t.Errorf("ContactSpan = %g, want 48 nm", l.ContactSpan)
	}
	if math.Abs(l.Side-1648) > 1e-9 {
		t.Errorf("Side = %g", l.Side)
	}
	if math.Abs(l.Area()-1648*1648) > 1e-6 {
		t.Errorf("Area = %g", l.Area())
	}
}

func TestEffectiveBitArea(t *testing.T) {
	l, err := NewLayout(DefaultCrossbarSpec(), 10, 32)
	if err != nil {
		t.Fatal(err)
	}
	raw := l.Area() / float64(l.Spec.RawBits)
	if got := l.EffectiveBitArea(1); math.Abs(got-raw) > 1e-9 {
		t.Errorf("full-yield bit area %g != raw %g", got, raw)
	}
	if got := l.EffectiveBitArea(0.5); math.Abs(got-4*raw) > 1e-9 {
		t.Errorf("half-yield bit area %g, want %g", got, 4*raw)
	}
	if !math.IsInf(l.EffectiveBitArea(0), 1) {
		t.Error("zero yield should be +Inf")
	}
}

func TestLayoutShorterCodeMoreGroups(t *testing.T) {
	// A shorter code (smaller Ω) needs more contact groups, growing the
	// contact span — the driver of the Fig. 8 area trend.
	spec := DefaultCrossbarSpec()
	short, err := NewLayout(spec, 6, 8) // Ω=8 < N=16 -> 2 groups
	if err != nil {
		t.Fatal(err)
	}
	long, err := NewLayout(spec, 10, 32) // 1 group
	if err != nil {
		t.Fatal(err)
	}
	if short.Contact.Groups <= long.Contact.Groups {
		t.Errorf("groups: short %d, long %d", short.Contact.Groups, long.Contact.Groups)
	}
	if short.ContactSpan <= long.ContactSpan {
		t.Error("contact span did not grow with group count")
	}
	if short.DecoderSpan >= long.DecoderSpan {
		t.Error("decoder span should grow with code length")
	}
}

func TestNewLayoutValidation(t *testing.T) {
	spec := DefaultCrossbarSpec()
	if _, err := NewLayout(spec, 0, 8); err == nil {
		t.Error("zero code length accepted")
	}
	bad := spec
	bad.RawBits = 0
	if _, err := NewLayout(bad, 8, 8); err == nil {
		t.Error("zero raw bits accepted")
	}
	bad = spec
	bad.HalfCaveWires = 0
	if _, err := NewLayout(bad, 8, 8); err == nil {
		t.Error("zero half-cave wires accepted")
	}
	bad = spec
	bad.NanowirePitch = 0
	if _, err := NewLayout(bad, 8, 8); err == nil {
		t.Error("invalid params accepted")
	}
}
