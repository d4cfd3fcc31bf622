package dataset

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// TestParseJSONRoundTrips pins the inverse the cluster peer protocol
// relies on: WriteJSON → ParseJSON reproduces the dataset — schema,
// rows with their exact Go cell types, notes, metadata — and the
// re-serialization is byte-identical, so a peer-served dataset renders
// exactly like a locally computed one.
func TestParseJSONRoundTrips(t *testing.T) {
	ds := sample()
	raw, err := ds.JSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseJSON(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Columns, ds.Columns) {
		t.Errorf("columns = %+v, want %+v", got.Columns, ds.Columns)
	}
	if !reflect.DeepEqual(got.Rows, ds.Rows) {
		t.Errorf("rows = %+v, want %+v", got.Rows, ds.Rows)
	}
	if !reflect.DeepEqual(got.Notes, ds.Notes) {
		t.Errorf("notes = %+v, want %+v", got.Notes, ds.Notes)
	}
	if got.Meta != ds.Meta {
		t.Errorf("meta = %+v, want %+v", got.Meta, ds.Meta)
	}
	again, err := got.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, raw) {
		t.Errorf("re-serialization differs:\n%s\nvs\n%s", again, raw)
	}
}

// TestParseJSONEmptyRows: a dataset with no rows round-trips to an empty
// (non-nil in JSON) row set.
func TestParseJSONEmptyRows(t *testing.T) {
	raw, err := New("e", "empty", Col("n", Int)).JSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseJSON(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "e" || len(got.Rows) != 0 || len(got.Columns) != 1 {
		t.Errorf("parsed %+v", got)
	}
}

// TestParseJSONRejects: malformed documents fail with a diagnostic
// instead of panicking in AddRow or silently coercing cell types.
func TestParseJSONRejects(t *testing.T) {
	cases := []struct {
		name string
		doc  string
	}{
		{"not-json", `{"name":`},
		{"unknown-kind", `{"name":"x","columns":[{"name":"a","kind":"complex"}],"rows":[]}`},
		{"arity", `{"name":"x","columns":[{"name":"a","kind":"int"}],"rows":[[1,2]]}`},
		{"type-mismatch", `{"name":"x","columns":[{"name":"a","kind":"int"}],"rows":[["one"]]}`},
		{"frac-as-int", `{"name":"x","columns":[{"name":"a","kind":"int"}],"rows":[[1.5]]}`},
		{"num-as-bool", `{"name":"x","columns":[{"name":"a","kind":"bool"}],"rows":[[1]]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseJSON(strings.NewReader(tc.doc)); err == nil {
				t.Errorf("ParseJSON accepted %s", tc.doc)
			}
		})
	}
}

func TestParseKind(t *testing.T) {
	for _, k := range []Kind{String, Int, Float, Bool} {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseKind("kind(9)"); err == nil {
		t.Error("ParseKind accepted an unknown name")
	}
}

// FuzzParseJSON fuzzes the decoder every checkpoint chunk and peer
// answer goes through. Any input ParseJSON accepts must re-encode to
// bytes that parse again and re-encode identically: the encoded form is
// a fixed point of WriteJSON∘ParseJSON, so a dataset crossing the wire
// or a checkpoint any number of times never drifts.
func FuzzParseJSON(f *testing.F) {
	raw, err := sample().JSON()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add([]byte(`{"name":"e","title":"","meta":{},"columns":[{"name":"n","kind":"int"}],"rows":[]}`))
	f.Add([]byte(`{"name":"x","columns":[{"name":"a","kind":"float"}],"rows":[[1e308],[-0],[5e-324]],"notes":[]}`))
	f.Add([]byte(`{"name":"x","columns":[{"name":"a","kind":"int"}],"rows":[[1.5]]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		ds, err := ParseJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		first, err := ds.JSON()
		if err != nil {
			t.Fatalf("accepted dataset does not encode: %v\n%s", err, data)
		}
		again, err := ParseJSON(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("re-encoded dataset does not parse: %v\n%s", err, first)
		}
		second, err := again.JSON()
		if err != nil {
			t.Fatalf("re-parsed dataset does not encode: %v\n%s", err, first)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("encoding is not stable:\n%s\nvs\n%s", first, second)
		}
	})
}
