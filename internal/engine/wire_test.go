package engine

import (
	"testing"

	"nwdec/internal/core"
	"nwdec/internal/nwerr"
	"nwdec/internal/physics"
	"nwdec/internal/sweep"
)

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
// and any bytes it accepts must re-marshal and decode again to the same
// key — the property the owner's X-Request-Key echo relies on.
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
			return // a decoded kind that never crosses the wire
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
