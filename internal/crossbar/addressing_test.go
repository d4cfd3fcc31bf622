package crossbar

import (
	"context"
	"strings"
	"testing"

	"nwdec/internal/code"
	"nwdec/internal/geometry"
	"nwdec/internal/mspt"
	"nwdec/internal/physics"
	"nwdec/internal/stats"
)

func TestNominalAddressingUniqueForAllFamilies(t *testing.T) {
	for _, tp := range code.AllTypes() {
		m := 8
		if !tp.Reflected() {
			m = 6
		}
		d := testDecoder(t, tp, m, 16)
		table, err := d.NominalAddressing(0, d.Plan.N())
		if err != nil {
			t.Fatal(err)
		}
		if !table.Unique() {
			t.Errorf("%v: nominal addressing ambiguous at %v", tp, table.Ambiguous())
		}
	}
}

func TestVerifyDecoderWholePlan(t *testing.T) {
	d := testDecoder(t, code.TypeBalancedGray, 10, 20)
	contact, err := geometry.DefaultParams().PlanContacts(20, 32)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyDecoder(d, contact); err != nil {
		t.Errorf("unique decoder rejected: %v", err)
	}
}

func TestVerifyDecoderDetectsDuplicates(t *testing.T) {
	// Force duplicated code words inside one group: cyclic assignment of a
	// 4-word space across 8 wires in a single 8-wire group.
	g, _ := code.NewTree(2, 4) // space size 4
	q, _ := physics.NewQuantizer(physics.DefaultPhysicalModel(), 2, 0, 1)
	plan, err := mspt.NewPlanFromGenerator(g, 8, q, 0)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDecoder(plan, q)
	if err != nil {
		t.Fatal(err)
	}
	err = VerifyDecoder(d, geometry.ContactPlan{GroupWires: 8, Groups: 1})
	if err == nil {
		t.Fatal("duplicated codes within a group not detected")
	}
	if !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("unexpected error: %v", err)
	}
	// With the proper 4-wire groups the same plan verifies.
	if err := VerifyDecoder(d, geometry.ContactPlan{GroupWires: 4, Groups: 2}); err != nil {
		t.Errorf("correctly partitioned plan rejected: %v", err)
	}
}

func TestNominalAddressingWindowValidation(t *testing.T) {
	d := testDecoder(t, code.TypeGray, 8, 8)
	if _, err := d.NominalAddressing(-1, 4); err == nil {
		t.Error("negative lo accepted")
	}
	if _, err := d.NominalAddressing(0, 9); err == nil {
		t.Error("hi beyond N accepted")
	}
	if _, err := d.NominalAddressing(4, 4); err == nil {
		t.Error("empty window accepted")
	}
}

// TestAddressOf checks the CMOS-side address a built wire carries: its
// half cave and contact group, and the code word that drives it, which at
// zero variability is the pattern row of its index.
func TestAddressOf(t *testing.T) {
	d := testDecoder(t, code.TypeGray, 8, 16)
	contact := geometry.ContactPlan{GroupWires: 8, Groups: 2}
	layer, err := BuildLayerWorkers(context.Background(), d, contact, 32, 0, stats.NewRNG(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	w := layer.Wires[19] // half cave 1, index 3, group 0
	if w.HalfCave != 1 || w.Index != 3 || w.Group != 0 {
		t.Errorf("wire 19 at half cave %d index %d group %d", w.HalfCave, w.Index, w.Group)
	}
	word := d.Plan.Pattern()[w.Index]
	for j, vt := range w.VT {
		if want := d.Q.VTOf(word[j]); vt != want {
			t.Errorf("region %d: VT %g, want %g for digit %d", j, vt, want, word[j])
		}
	}
	if !Conducts(w.VT, d.AddressVoltages(word)) {
		t.Errorf("wire 19 does not conduct under its address word %v", word)
	}
}

func TestNominalTableAmbiguousEmptyForUnique(t *testing.T) {
	d := testDecoder(t, code.TypeHot, 6, 12)
	table, err := d.NominalAddressing(0, 12)
	if err != nil {
		t.Fatal(err)
	}
	if amb := table.Ambiguous(); len(amb) != 0 {
		t.Errorf("unexpected ambiguity: %v", amb)
	}
}
