package dataset

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// referenceParseJSON is the encoding/json decoder ParseJSON replaced, kept
// as the reference the tests compare it with: it decodes into the
// jsonDataset form WriteJSON encodes from, with numbers as json.Number,
// then converts each cell to its column's Go type. It accepts more than
// ParseJSON (keys in any order and case, null, unknown keys, data after
// the document), so ParseJSON's language is checked to be a subset of
// this one with equal results.
func referenceParseJSON(r io.Reader) (*Dataset, error) {
	var doc jsonDataset
	dec := json.NewDecoder(r)
	dec.UseNumber()
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("dataset: parsing JSON: %w", err)
	}
	cols := make([]Column, len(doc.Columns))
	for i, c := range doc.Columns {
		kind, err := ParseKind(c.Kind)
		if err != nil {
			return nil, err
		}
		cols[i] = Column{Name: c.Name, Unit: c.Unit, Kind: kind}
	}
	d := New(doc.Name, doc.Title, cols...)
	d.Meta = Meta{
		Experiment: doc.Meta.Experiment,
		Seed:       doc.Meta.Seed,
		Trials:     doc.Meta.Trials,
		ConfigHash: doc.Meta.ConfigHash,
	}
	d.Notes = doc.Notes
	for ri, row := range doc.Rows {
		if len(row) != len(cols) {
			return nil, fmt.Errorf("dataset %s: row %d has %d cells, schema has %d columns",
				doc.Name, ri, len(row), len(cols))
		}
		cells := make([]any, len(row))
		for ci, v := range row {
			cell, err := parseCell(cols[ci].Kind, v)
			if err != nil {
				return nil, fmt.Errorf("dataset %s: row %d, column %s: %w", doc.Name, ri, cols[ci].Name, err)
			}
			cells[ci] = cell
		}
		d.AddRow(cells...)
	}
	return d, nil
}

// parseCell converts one decoded JSON value of the reference decoder to
// the Go type of its column's kind.
func parseCell(k Kind, v any) (any, error) {
	switch k {
	case String:
		s, ok := v.(string)
		if !ok {
			return nil, fmt.Errorf("want string, got %T", v)
		}
		return s, nil
	case Int:
		n, ok := v.(json.Number)
		if !ok {
			return nil, fmt.Errorf("want integer, got %T", v)
		}
		i, err := n.Int64()
		if err != nil {
			return nil, fmt.Errorf("want integer, got %q", n.String())
		}
		return int(i), nil
	case Float:
		n, ok := v.(json.Number)
		if !ok {
			return nil, fmt.Errorf("want number, got %T", v)
		}
		f, err := n.Float64()
		if err != nil {
			return nil, fmt.Errorf("want number, got %q", n.String())
		}
		return f, nil
	case Bool:
		b, ok := v.(bool)
		if !ok {
			return nil, fmt.Errorf("want bool, got %T", v)
		}
		return b, nil
	}
	return nil, fmt.Errorf("unknown kind %v", k)
}

// datasetDiff describes the first difference between two datasets, or
// returns "" when they are equal: name, title, meta, columns and notes,
// with nil and empty slices alike, and every cell by Go type, floats by
// their bits.
func datasetDiff(a, b *Dataset) string {
	switch {
	case a.Name != b.Name || a.Title != b.Title:
		return fmt.Sprintf("name/title %q/%q vs %q/%q", a.Name, a.Title, b.Name, b.Title)
	case a.Meta != b.Meta:
		return fmt.Sprintf("meta %+v vs %+v", a.Meta, b.Meta)
	case !slices.Equal(a.Columns, b.Columns):
		return fmt.Sprintf("columns %+v vs %+v", a.Columns, b.Columns)
	case !slices.Equal(a.Notes, b.Notes):
		return fmt.Sprintf("notes %q vs %q", a.Notes, b.Notes)
	case len(a.Rows) != len(b.Rows):
		return fmt.Sprintf("%d rows vs %d", len(a.Rows), len(b.Rows))
	}
	for ri := range a.Rows {
		if len(a.Rows[ri]) != len(b.Rows[ri]) {
			return fmt.Sprintf("row %d: %d cells vs %d", ri, len(a.Rows[ri]), len(b.Rows[ri]))
		}
		for ci, x := range a.Rows[ri] {
			y := b.Rows[ri][ci]
			same := x == y
			if fx, ok := x.(float64); ok {
				fy, ok := y.(float64)
				same = ok && math.Float64bits(fx) == math.Float64bits(fy)
			}
			if !same {
				return fmt.Sprintf("row %d, cell %d: %T %#v vs %T %#v", ri, ci, x, x, y, y)
			}
		}
	}
	return ""
}

// checkAgrees fails unless CheckJSON gives ParseJSON's verdict on data:
// nil when ParseJSON decodes it, and otherwise an error of identical text.
func checkAgrees(t *testing.T, data []byte) {
	t.Helper()
	_, err := ParseJSON(bytes.NewReader(data))
	cerr := CheckJSON(data)
	if (cerr == nil) != (err == nil) || (err != nil && cerr.Error() != err.Error()) {
		t.Fatalf("CheckJSON = %v, ParseJSON = %v\n%q", cerr, err, data)
	}
}

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

// TestParseJSONMatchesReference decodes every experiment golden and the
// sample with both decoders: the datasets are equal and re-encode to the
// input bytes.
func TestParseJSONMatchesReference(t *testing.T) {
	goldens, err := filepath.Glob(filepath.Join("..", "experiments", "testdata", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(goldens) == 0 {
		t.Fatal("no experiment goldens found")
	}
	docs := map[string][]byte{}
	for _, path := range goldens {
		if docs[filepath.Base(path)], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	if docs["sample"], err = sample().JSON(); err != nil {
		t.Fatal(err)
	}
	for name, raw := range docs {
		t.Run(name, func(t *testing.T) {
			got, err := ParseJSON(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			ref, err := referenceParseJSON(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			if diff := datasetDiff(got, ref); diff != "" {
				t.Errorf("ParseJSON and the reference differ: %s", diff)
			}
			checkAgrees(t, raw)
			again, err := got.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, raw) {
				t.Errorf("re-encoding differs from the input:\n%s\nvs\n%s", again, raw)
			}
		})
	}
}

// TestParseJSONDecodesStrings: escapes decode as encoding/json decodes
// them.
func TestParseJSONDecodesStrings(t *testing.T) {
	for _, s := range []string{
		`plain`, `nm²`, `😀`, `a\"b\\c\/d`, `\b\f\n\r\t`, `\u003cé\u2028\u0000`,
	} {
		doc := `{"name":"` + s + `"}`
		got, err := ParseJSON(strings.NewReader(doc))
		if err != nil {
			t.Errorf("%s: %v", doc, err)
			continue
		}
		ref, err := referenceParseJSON(strings.NewReader(doc))
		if err != nil {
			t.Fatalf("%s: reference: %v", doc, err)
		}
		if got.Name != ref.Name {
			t.Errorf("%s: name %q, reference %q", doc, got.Name, ref.Name)
		}
	}
}

// TestParseJSONRejects: malformed documents fail with a diagnostic
// instead of panicking in AddRow or silently coercing cell types, and so
// do documents outside the grammar WriteJSON emits.
func TestParseJSONRejects(t *testing.T) {
	const intCol = `{"name":"x","columns":[{"name":"a","kind":"int"}],`
	const floatCol = `{"name":"x","columns":[{"name":"a","kind":"float"}],`
	cases := []struct {
		name string
		doc  string
	}{
		{"not-json", `{"name":`},
		{"unknown-kind", `{"name":"x","columns":[{"name":"a","kind":"complex"}],"rows":[]}`},
		{"arity", intCol + `"rows":[[1,2]]}`},
		{"short-row", intCol + `"rows":[[]]}`},
		{"type-mismatch", intCol + `"rows":[["one"]]}`},
		{"frac-as-int", intCol + `"rows":[[1.5]]}`},
		{"num-as-bool", `{"name":"x","columns":[{"name":"a","kind":"bool"}],"rows":[[1]]}`},
		{"unknown-key", `{"name":"x","extra":1}`},
		{"duplicate-key", `{"name":"x","name":"y"}`},
		{"misordered-keys", `{"title":"t","name":"x"}`},
		{"case-variant-key", `{"nAme":"0"}`},
		{"column-without-kind", `{"name":"","columns":[{}]}`},
		{"null-document", `null`},
		{"null-value", `{"name":"x","title":null}`},
		{"null-cell", intCol + `"rows":[[null]]}`},
		{"trailing-bytes", `{"name":"x"} {}`},
		{"trailing-nul", "{\"name\":\"x\"}\x00"},
		{"float-overflow", floatCol + `"rows":[[1e400]]}`},
		{"int-overflow", intCol + `"rows":[[9223372036854775808]]}`},
		{"leading-zero", intCol + `"rows":[[01]]}`},
		{"negative-seed", `{"name":"x","meta":{"seed":-1}}`},
		{"control-byte", "{\"name\":\"a\x01b\"}"},
		{"invalid-utf8", "{\"name\":\"a\xffb\"}"},
		{"bad-escape", `{"name":"\x"}`},
		{"bad-unicode-escape", `{"name":"\u12G4"}`},
		{"surrogate-pair-escape", `{"name":"\ud83d\ude00"}`},
		{"lone-surrogate-escape", `{"name":"\ude00"}`},
		{"unterminated-string", `{"name":"x`},
		{"empty", ``},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseJSON(strings.NewReader(tc.doc)); err == nil {
				t.Errorf("ParseJSON accepted %s", tc.doc)
			}
			checkAgrees(t, []byte(tc.doc))
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
// answer goes through, against the reference decoder:
//   - any input ParseJSON accepts re-encodes to bytes that parse again
//     and re-encode identically: the encoded form is a fixed point of
//     WriteJSON∘ParseJSON, so a dataset crossing the wire or a checkpoint
//     any number of times never drifts;
//   - the reference accepts it too, with an equal dataset;
//   - for any input the reference accepts, ParseJSON accepts the
//     WriteJSON bytes of the reference's dataset and decodes them to an
//     equal one, so the stricter grammar still covers every dataset;
//   - CheckJSON accepts exactly what ParseJSON accepts and otherwise
//     fails with ParseJSON's error text, so the resume probe and the
//     paging decode can never disagree about a checkpoint.
func FuzzParseJSON(f *testing.F) {
	raw, err := sample().JSON()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add([]byte(`{"name":"e","title":"","meta":{},"columns":[{"name":"n","kind":"int"}],"rows":[]}`))
	f.Add([]byte(`{"name":"x","columns":[{"name":"a","kind":"float"}],"rows":[[1e308],[-0],[5e-324]],"notes":[]}`))
	f.Add([]byte(`{"name":"x","columns":[{"name":"a","kind":"int"}],"rows":[[1.5]]}`))
	f.Add([]byte(`{"nAme":"0"}`))
	f.Add([]byte(`{"name":"","columns":[{}]}`))
	f.Add([]byte(`{"name":"😀<","meta":{"seed":18446744073709551615,"trials":-1},"columns":[{"name":"b","unit":"V","kind":"bool"},{"name":"s","kind":"string"}],"rows":[[true,"\t"],[false,""]]}`))
	// The edges of CheckJSON's strconv-free fast paths: an exponent
	// that overflows, 309 and 308 integer digits without an exponent (and
	// 308 with a fraction, 310 bytes), ints of 19 digits and of 18 bytes,
	// and a fraction in an int column. The float column's name holds an
	// escape, so both passes' row errors must name it decoded.
	const floatCol = `{"name":"x","columns":[{"name":"a\u00e9","kind":"float"}],"rows":[[`
	const intCol = `{"name":"x","columns":[{"name":"a","kind":"int"}],"rows":[[`
	for _, cell := range []string{`1e400`, strings.Repeat("9", 309), strings.Repeat("9", 308), strings.Repeat("9", 308) + ".5"} {
		f.Add([]byte(floatCol + cell + `]]}`))
	}
	for _, cell := range []string{`9999999999999999999`, `9223372036854775807`, `-99999999999999999`, `1.0`} {
		f.Add([]byte(intCol + cell + `]]}`))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgrees(t, data)
		ref, refErr := referenceParseJSON(bytes.NewReader(data))
		if refErr == nil {
			enc, err := ref.JSON()
			if err != nil {
				t.Fatalf("reference dataset does not encode: %v\n%q", err, data)
			}
			back, err := ParseJSON(bytes.NewReader(enc))
			if err != nil {
				t.Fatalf("ParseJSON rejects the encoding of the reference's dataset: %v\n%s", err, enc)
			}
			if diff := datasetDiff(back, ref); diff != "" {
				t.Fatalf("ParseJSON of the reference's encoding differs: %s\n%s", diff, enc)
			}
		}
		ds, err := ParseJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		if refErr != nil {
			t.Fatalf("ParseJSON accepted what the reference rejects (%v):\n%q", refErr, data)
		}
		if diff := datasetDiff(ds, ref); diff != "" {
			t.Fatalf("ParseJSON and the reference differ: %s\n%q", diff, data)
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

// chunkSink keeps the benchmarked decode from being optimized away.
var chunkSink *Dataset

// chunkDoc is a document shaped like a sweep chunk checkpoint: rows rows
// of one string, five int and six float columns, floats at full
// precision.
func chunkDoc(tb testing.TB, rows int) []byte {
	tb.Helper()
	ds := New("sweep", "Design-space sweep (tidy long format)",
		Col("code", String), Col("length", Int), ColUnit("sigmaT_V", "V", Float),
		Col("marginFactor", Float), Col("halfCaveWires", Int), Col("spaceSize", Int),
		Col("contactGroups", Int), Col("phi", Int), ColUnit("avgVariability_V2", "V²", Float),
		Col("yield", Float), Col("effectiveBits", Float), ColUnit("bitArea_nm2", "nm²", Float))
	codes := []string{"tc", "gc", "bgc", "hc", "ahc"}
	for i := 0; i < rows; i++ {
		x := float64(i + 1)
		ds.AddRow(codes[i%len(codes)], 4+2*(i%5), 0.03+x/997, 1+x/31,
			10+i, 1<<(4+i%5), 1+i%3, 40+7*i, math.Sqrt(x)/1e3, 1/(1+x/7),
			x*math.Pi, 150+x*x/3)
	}
	raw, err := ds.JSON()
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// TestCheckJSONAllocsFlat: CheckJSON builds no row, cell or string, so a
// document of 64 rows costs it no more allocations than one of 2.
func TestCheckJSONAllocsFlat(t *testing.T) {
	small, large := chunkDoc(t, 2), chunkDoc(t, 64)
	allocs := func(doc []byte) float64 {
		return testing.AllocsPerRun(50, func() {
			if err := CheckJSON(doc); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a, b := allocs(small), allocs(large); b > a {
		t.Errorf("CheckJSON makes %v allocations for 2 rows and %v for 64", a, b)
	}
}

// BenchmarkParseJSON decodes a 32-row chunk document (chunkDoc, 8.0 KB)
// with ParseJSON and with the reference.
func BenchmarkParseJSON(b *testing.B) {
	raw := chunkDoc(b, 32)
	for _, dec := range []struct {
		name  string
		parse func(io.Reader) (*Dataset, error)
	}{
		{"single-pass", ParseJSON},
		{"reference", referenceParseJSON},
	} {
		b.Run(dec.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(raw)))
			for i := 0; i < b.N; i++ {
				d, err := dec.parse(bytes.NewReader(raw))
				if err != nil {
					b.Fatal(err)
				}
				chunkSink = d
			}
		})
	}
}

// BenchmarkCheckJSON validates the BenchmarkParseJSON document without
// building it, as the resume probe does.
func BenchmarkCheckJSON(b *testing.B) {
	raw := chunkDoc(b, 32)
	b.ReportAllocs()
	b.SetBytes(int64(len(raw)))
	for i := 0; i < b.N; i++ {
		if err := CheckJSON(raw); err != nil {
			b.Fatal(err)
		}
	}
}
