package engine

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"nwdec/internal/code"
	"nwdec/internal/core"
	"nwdec/internal/geometry"
	"nwdec/internal/nwerr"
	"nwdec/internal/physics"
	"nwdec/internal/sweep"
)

// TestWireCarriesEveryIdentityField: the wire form is Request's own JSON
// form, so every identity field must round-trip exactly and Workers must
// never cross. The literal sets every exported field — the reflect loop
// fails on any left zero, so a field added to Request must be added
// here, and its wire behaviour is then checked with the rest.
func TestWireCarriesEveryIdentityField(t *testing.T) {
	full := Request{
		Kind: KindSweep,
		Config: core.Config{
			CodeType: code.TypeGray, Base: 3, CodeLength: 6,
			Spec: geometry.CrossbarSpec{
				Params:        geometry.Params{LithoPitch: 45, NanowirePitch: 10, MinContactFactor: 1.5, BoundaryLossWires: 2},
				RawBits:       4096,
				HalfCaveWires: 24,
			},
			SigmaT: 0.05, VMin: -1, VMax: 1, MarginFactor: 1.25, DoseUnit: 0.1,
		},
		Experiment: "fig7",
		Grid: sweep.Grid{
			Types:         []code.Type{code.TypeHot, code.TypeArrangedHot},
			Lengths:       []int{4, 6},
			SigmaTs:       []float64{0.04, 0.05},
			MarginFactors: []float64{1, 1.5},
			HalfCaveWires: []int{16, 20},
		},
		Objective: core.MaxYield,
		Types:     []code.Type{code.TypeTree},
		Lengths:   []int{8, 10},
		Count:     12,
		Seed:      2009,
		Trials:    7,
		Lo:        1,
		Hi:        3,
		Workers:   4,
	}
	v := reflect.ValueOf(full)
	for i := 0; i < v.NumField(); i++ {
		if f := v.Type().Field(i); f.IsExported() && v.Field(i).IsZero() {
			t.Errorf("Request.%s is zero in the literal; set it so its wire form is checked", f.Name)
		}
	}

	data, err := full.MarshalWire()
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(data, &fields); err != nil {
		t.Fatal(err)
	}
	for name := range fields {
		if strings.EqualFold(name, "workers") {
			t.Errorf("Workers crossed the wire as %q: %s", name, data)
		}
	}
	got, err := UnmarshalWire(data)
	if err != nil {
		t.Fatal(err)
	}
	want := full
	want.Workers = 0
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip changed the request:\n got %+v\nwant %+v", got, want)
	}
}

// TestChunkWireRoundTrip pins the interchange form of a job chunk — a
// ranged sweep request: the identity fields and the point range survive
// the round trip exactly, so both ends derive the same key; an unranged
// request's wire bytes carry no range fields at all; a config carrying an
// in-process threshold model is rejected as non-wireable; and bytes that
// are not the wire form at all are Invalid-class.
func TestChunkWireRoundTrip(t *testing.T) {
	req := Request{
		Kind:   KindSweep,
		Config: core.Config{SigmaT: 0.05, MarginFactor: 1.25},
		Grid: sweep.Grid{
			Lengths: []int{4, 6},
			SigmaTs: []float64{0.04, 0.05},
		},
		Lo: 3,
		Hi: 6,
	}
	data, err := req.MarshalWire()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalWire(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Lo != req.Lo || got.Hi != req.Hi {
		t.Errorf("round trip changed the range: got [%d,%d), want [%d,%d)", got.Lo, got.Hi, req.Lo, req.Hi)
	}
	if got.Key() != req.Key() {
		t.Errorf("round trip changed the key: %s, want %s", got.Key(), req.Key())
	}
	whole := req
	whole.Lo, whole.Hi = 0, 0
	if whole.Key() == req.Key() {
		t.Error("a ranged request shares the whole sweep's key")
	}

	// The zero sweep's wire form, byte for byte as it was before ranges
	// existed: unset range fields never reach the wire.
	const zeroSweep = `{"kind":"sweep","config":{"CodeType":0,"Base":0,"CodeLength":0,"Spec":{"LithoPitch":0,"NanowirePitch":0,"MinContactFactor":0,"BoundaryLossWires":0,"RawBits":0,"HalfCaveWires":0},"SigmaT":0,"VMin":0,"VMax":0,"MarginFactor":0,"Model":null,"DoseUnit":0},"grid":{"Types":null,"Lengths":null,"SigmaTs":null,"MarginFactors":null,"HalfCaveWires":null},"objective":0}`
	zero, err := Request{Kind: KindSweep}.MarshalWire()
	if err != nil {
		t.Fatal(err)
	}
	if string(zero) != zeroSweep {
		t.Errorf("unranged wire form changed:\n got %s\nwant %s", zero, zeroSweep)
	}

	modeled := req
	modeled.Config.Model = physics.DefaultPhysicalModel()
	if _, err := modeled.MarshalWire(); !nwerr.IsInvalid(err) {
		t.Errorf("MarshalWire with custom model = %v, want Invalid-class", err)
	}
	if _, err := UnmarshalWire([]byte("{nope")); !nwerr.IsInvalid(err) {
		t.Errorf("UnmarshalWire(garbage) = %v, want Invalid-class", err)
	}
}

// FuzzUnmarshalWire fuzzes the peer protocol's decoder, the one parser
// that reads request bytes from other processes: it must never panic,
// and any bytes it accepts must re-marshal (it never yields a request
// that could not have been sent) and decode again to the same key — the
// property the owner's X-Request-Key echo relies on.
func FuzzUnmarshalWire(f *testing.F) {
	for _, req := range []Request{
		{Kind: KindSweep},
		{Kind: KindSweep, Grid: sweep.Grid{Lengths: []int{4, 6}, SigmaTs: []float64{0.04}}, Lo: 1, Hi: 3},
		{Kind: KindExperiment, Experiment: "fig5", Seed: 7, Trials: 3},
		{Kind: KindCodes, Count: 4, Config: core.Config{Base: 3, CodeLength: 4}},
		{Kind: KindMonteCarlo, Trials: 2, Config: core.Config{SigmaT: 0.05}},
	} {
		data, err := req.MarshalWire()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"kind":"sweep","lo":-1,"hi":1e3}`))
	f.Add([]byte(`{nope`))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := UnmarshalWire(data)
		if err != nil {
			if !nwerr.IsInvalid(err) {
				t.Fatalf("decode error %v is not Invalid-class", err)
			}
			return
		}
		again, err := req.MarshalWire()
		if err != nil {
			t.Fatalf("decoded request does not re-marshal: %v\n%s", err, data)
		}
		back, err := UnmarshalWire(again)
		if err != nil {
			t.Fatalf("re-marshaled request does not decode: %v\n%s", err, again)
		}
		if back.Key() != req.Key() {
			t.Fatalf("key changed across the wire: %s -> %s\n%s", req.Key(), back.Key(), again)
		}
	})
}
