package crossbar

import (
	"context"
	"errors"
	"math"
	"testing"

	"nwdec/internal/code"
	"nwdec/internal/geometry"
	"nwdec/internal/mspt"
	"nwdec/internal/physics"
	"nwdec/internal/stats"
	"nwdec/internal/yield"
)

func testDecoder(t *testing.T, tp code.Type, m, n int) *Decoder {
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
	d, err := NewDecoder(plan, q)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewDecoderBaseMismatch(t *testing.T) {
	g, _ := code.NewGray(2, 6)
	q2, _ := physics.NewQuantizer(physics.DefaultPhysicalModel(), 2, 0, 1)
	q3, _ := physics.NewQuantizer(physics.DefaultPhysicalModel(), 3, 0, 1)
	plan, err := mspt.NewPlanFromGenerator(g, 4, q2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDecoder(plan, q3); err == nil {
		t.Error("base mismatch accepted")
	}
}

func TestAddressVoltages(t *testing.T) {
	d := testDecoder(t, code.TypeGray, 6, 8)
	// Binary over [0,1]: digit 0 band edge 0.5, digit 1 band edge 1.0.
	va := d.AddressVoltages(code.FromDigits(0, 1, 0))
	want := []float64{0.5, 1.0, 0.5}
	for j := range want {
		if math.Abs(va[j]-want[j]) > 1e-12 {
			t.Errorf("va[%d] = %g, want %g", j, va[j], want[j])
		}
	}
}

func TestConducts(t *testing.T) {
	va := []float64{0.5, 1.0}
	if !Conducts([]float64{0.25, 0.75}, va) {
		t.Error("nominal on-wire does not conduct")
	}
	if Conducts([]float64{0.75, 0.75}, va) {
		t.Error("blocked wire conducts")
	}
	if Conducts([]float64{0.5, 0.75}, va) {
		t.Error("threshold equal to gate voltage should not conduct")
	}
}

func TestNominalDecoderAddressesExactlyOneWire(t *testing.T) {
	// With zero variability, every code word must address exactly its own
	// nanowire — the uniqueness property of reflected and hot codes.
	for _, tp := range []code.Type{code.TypeTree, code.TypeGray, code.TypeBalancedGray, code.TypeHot, code.TypeArrangedHot} {
		d := testDecoder(t, tp, 8, 12)
		rng := stats.NewRNG(1)
		vt := d.SampleVT(rng, 0) // sigma 0: nominal thresholds
		unique := d.UniquelyAddressable(vt, 0, d.Plan.N())
		for i, ok := range unique {
			if !ok {
				t.Errorf("%v: wire %d not uniquely addressable at zero variability", tp, i)
			}
		}
	}
}

func TestCrossAddressingBlockedNominally(t *testing.T) {
	d := testDecoder(t, code.TypeGray, 8, 12)
	rng := stats.NewRNG(2)
	vt := d.SampleVT(rng, 0)
	pattern := d.Plan.Pattern()
	for i := range pattern {
		va := d.AddressVoltages(pattern[i])
		for k := range pattern {
			conducts := Conducts(vt[k], va)
			if k == i && !conducts {
				t.Errorf("wire %d does not conduct under own address", i)
			}
			if k != i && conducts {
				t.Errorf("wire %d conducts under address of wire %d", k, i)
			}
		}
	}
}

func TestMarginAddressableMatchesAnalyticYield(t *testing.T) {
	// Monte-Carlo margin addressability must converge to the analytic
	// per-wire probabilities of the yield package.
	d := testDecoder(t, code.TypeGray, 8, 12)
	a, err := yield.NewAnalyzer(yield.DefaultSigmaT, d.Q.Margin())
	if err != nil {
		t.Fatal(err)
	}
	want := a.WireProbs(d.Plan)
	const trials = 3000
	counts := make([]int, d.Plan.N())
	rng := stats.NewRNG(42)
	for tr := 0; tr < trials; tr++ {
		vt := d.SampleVT(rng, yield.DefaultSigmaT)
		for i, ok := range d.MarginAddressable(vt, a.Margin) {
			if ok {
				counts[i]++
			}
		}
	}
	for i := range want {
		got := float64(counts[i]) / trials
		if math.Abs(got-want[i]) > 0.03 {
			t.Errorf("wire %d: MC %g vs analytic %g", i, got, want[i])
		}
	}
}

func TestFunctionalYieldTracksAnalytic(t *testing.T) {
	// The full conduction-based uniqueness test is the real-device check;
	// it should track the analytic margin model within a few percent.
	d := testDecoder(t, code.TypeBalancedGray, 10, 20)
	a, err := yield.NewAnalyzer(yield.DefaultSigmaT, d.Q.Margin())
	if err != nil {
		t.Fatal(err)
	}
	analytic := a.AnalyzeHalfCave(d.Plan, geometry.ContactPlan{Groups: 1}).Yield
	const trials = 400
	total := 0
	rng := stats.NewRNG(7)
	for tr := 0; tr < trials; tr++ {
		vt := d.SampleVT(rng, yield.DefaultSigmaT)
		for _, ok := range d.UniquelyAddressable(vt, 0, d.Plan.N()) {
			if ok {
				total++
			}
		}
	}
	mc := float64(total) / float64(trials*d.Plan.N())
	if math.Abs(mc-analytic) > 0.08 {
		t.Errorf("functional MC yield %g deviates from analytic %g", mc, analytic)
	}
}

func TestBuildLayer(t *testing.T) {
	d := testDecoder(t, code.TypeGray, 8, 16)
	contact, err := geometry.DefaultParams().PlanContacts(16, 8)
	if err != nil {
		t.Fatal(err)
	}
	layer, err := BuildLayerWorkers(context.Background(), d, contact, 128, yield.DefaultSigmaT, stats.NewRNG(3), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(layer.Wires) != 128 {
		t.Fatalf("layer has %d wires", len(layer.Wires))
	}
	ambCount := 0
	for i, w := range layer.Wires {
		// Wires fill half caves in order: wire i sits at index i mod N of
		// half cave i / N.
		if w.HalfCave != i/d.Plan.N() || w.Index != i%d.Plan.N() {
			t.Fatalf("wire %d at half cave %d index %d", i, w.HalfCave, w.Index)
		}
		if w.Group != w.Index/contact.GroupWires {
			t.Fatalf("wire group %d inconsistent with index %d", w.Group, w.Index)
		}
		if w.BoundaryAmbiguous {
			ambCount++
			if w.Addressable {
				t.Fatal("boundary-ambiguous wire marked addressable")
			}
		}
		if len(w.VT) != d.Plan.M() {
			t.Fatalf("wire VT length %d", len(w.VT))
		}
	}
	if ambCount == 0 {
		t.Error("no boundary-ambiguous wires despite multiple groups")
	}
	y := layer.Yield()
	if y <= 0 || y >= 1 {
		t.Errorf("layer yield %g out of plausible range", y)
	}
}

func TestBuildLayerValidation(t *testing.T) {
	d := testDecoder(t, code.TypeGray, 6, 8)
	contact := geometry.ContactPlan{GroupWires: 8, Groups: 1}
	if _, err := BuildLayerWorkers(context.Background(), d, contact, 0, 0.05, stats.NewRNG(1), 0); err == nil {
		t.Error("zero wires accepted")
	}
	if _, err := BuildLayerWorkers(context.Background(), d, contact, 8, -1, stats.NewRNG(1), 0); err == nil {
		t.Error("negative sigma accepted")
	}
}

func TestMemoryReadWrite(t *testing.T) {
	d := testDecoder(t, code.TypeGray, 8, 16)
	contact := geometry.ContactPlan{GroupWires: 16, Groups: 1}
	rng := stats.NewRNG(11)
	rows, err := BuildLayerWorkers(context.Background(), d, contact, 32, 0, rng, 0) // zero sigma: all addressable
	if err != nil {
		t.Fatal(err)
	}
	cols, err := BuildLayerWorkers(context.Background(), d, contact, 32, 0, rng, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMemory(rows, cols)
	r, c := m.Size()
	if r != 32 || c != 32 {
		t.Fatalf("size = %d x %d", r, c)
	}
	if m.UsableBits() != 1024 {
		t.Fatalf("UsableBits = %d, want 1024 at zero variability", m.UsableBits())
	}
	// Write a checkerboard and read it back.
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if err := m.Write(i, j, (i+j)%2 == 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			bit, err := m.Read(i, j)
			if err != nil {
				t.Fatal(err)
			}
			if bit != ((i+j)%2 == 0) {
				t.Fatalf("bit (%d,%d) = %v", i, j, bit)
			}
		}
	}
	// Overwrite and clear.
	if err := m.Write(3, 4, false); err != nil {
		t.Fatal(err)
	}
	if bit, _ := m.Read(3, 4); bit {
		t.Error("cleared bit still set")
	}
}

func TestMemoryDefectiveAccess(t *testing.T) {
	d := testDecoder(t, code.TypeGray, 8, 16)
	contact := geometry.ContactPlan{GroupWires: 16, Groups: 1}
	rng := stats.NewRNG(13)
	rows, _ := BuildLayerWorkers(context.Background(), d, contact, 16, 0, rng, 0)
	cols, _ := BuildLayerWorkers(context.Background(), d, contact, 16, 0, rng, 0)
	rows.Wires[5].Addressable = false
	m := NewMemory(rows, cols)
	err := m.Write(5, 0, true)
	var ua *ErrUnaddressable
	if !errors.As(err, &ua) || ua.Axis != "row" || ua.Index != 5 {
		t.Errorf("expected row-5 unaddressable error, got %v", err)
	}
	if _, err := m.Read(0, 99); err == nil {
		t.Error("out-of-range read accepted")
	}
	if err := m.Write(-1, 0, true); err == nil {
		t.Error("out-of-range write accepted")
	}
	if m.Usable(5, 0) || !m.Usable(6, 0) {
		t.Error("Usable inconsistent with defect map")
	}
	if m.UsableBits() != 15*16 {
		t.Errorf("UsableBits = %d, want %d", m.UsableBits(), 15*16)
	}
	if math.Abs(m.UsableFraction()-float64(15*16)/256) > 1e-12 {
		t.Errorf("UsableFraction = %g", m.UsableFraction())
	}
}

func TestMemoryUsableFractionMatchesAnalyticSquare(t *testing.T) {
	// Build a full 128x128 memory and check the usable fraction is near
	// the analytic Y² prediction.
	g, _ := code.NewGray(2, 10)
	q, _ := physics.NewQuantizer(physics.DefaultPhysicalModel(), 2, 0, 1)
	plan, err := mspt.NewPlanFromGenerator(g, 20, q, 0)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDecoder(plan, q)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := geometry.NewLayout(geometry.DefaultCrossbarSpec(), 10, g.SpaceSize())
	if err != nil {
		t.Fatal(err)
	}
	a, _ := yield.NewAnalyzer(yield.DefaultSigmaT, q.Margin())
	want := a.AnalyzeCrossbar(plan, layout)
	rng := stats.NewRNG(99)
	const reps = 6
	sum := 0.0
	for rep := 0; rep < reps; rep++ {
		rows, err := BuildLayerWorkers(context.Background(), d, layout.Contact, layout.WiresPerLayer, yield.DefaultSigmaT, rng, 0)
		if err != nil {
			t.Fatal(err)
		}
		cols, err := BuildLayerWorkers(context.Background(), d, layout.Contact, layout.WiresPerLayer, yield.DefaultSigmaT, rng, 0)
		if err != nil {
			t.Fatal(err)
		}
		sum += NewMemory(rows, cols).UsableFraction()
	}
	mc := sum / reps
	analytic := want.Yield * want.Yield
	if math.Abs(mc-analytic) > 0.12 {
		t.Errorf("MC usable fraction %g far from analytic Y² %g", mc, analytic)
	}
}

func TestBuildLayerZeroValuedContactPlan(t *testing.T) {
	// A zero ContactPlan must behave as a single undivided group rather
	// than looping forever on a zero group width.
	d := testDecoder(t, code.TypeGray, 8, 8)
	layer, err := BuildLayerWorkers(context.Background(), d, geometry.ContactPlan{}, 16, 0, stats.NewRNG(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(layer.Wires) != 16 {
		t.Fatalf("layer has %d wires", len(layer.Wires))
	}
	for _, w := range layer.Wires {
		if w.Group != 0 {
			t.Fatalf("wire in group %d, want single group 0", w.Group)
		}
		if !w.Addressable {
			t.Fatal("zero-variability wire not addressable")
		}
	}
}
