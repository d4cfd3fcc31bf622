package dataset

import (
	"encoding/json"
	"strings"
	"testing"
)

func sample() *Dataset {
	ds := New("demo", "Demo result",
		Col("code", String),
		Col("length", Int),
		ColUnit("area", "nm²", Float),
		Col("pass", Bool),
	)
	ds.AddRow("BGC", 10, 192.0, true)
	ds.AddRow("TC", 8, 259.5, false)
	ds.Note("best: %s", "BGC")
	ds.Meta = Meta{Experiment: "demo", Seed: 7, Trials: 3, ConfigHash: "abc"}
	return ds
}

func TestAddRowValidation(t *testing.T) {
	ds := New("v", "", Col("n", Int), Col("x", Float))
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	mustPanic("arity", func() { ds.AddRow(1) })
	mustPanic("kind", func() { ds.AddRow(1, "not a float") })
	mustPanic("int-as-float", func() { ds.AddRow(1, 2) })
	ds.AddRow(1, 2.0)
	if len(ds.Rows) != 1 {
		t.Fatalf("valid row rejected")
	}
}

func TestCSVForm(t *testing.T) {
	got := sample().CSV()
	want := "code,length,area,pass\nBGC,10,192,true\nTC,8,259.5,false\n"
	if got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
}

func TestJSONFormRoundTrips(t *testing.T) {
	raw, err := sample().JSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Name string `json:"name"`
		Meta struct {
			Experiment string `json:"experiment"`
			Seed       uint64 `json:"seed"`
		} `json:"meta"`
		Columns []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
			Kind string `json:"kind"`
		} `json:"columns"`
		Rows  [][]any  `json:"rows"`
		Notes []string `json:"notes"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if doc.Name != "demo" || doc.Meta.Experiment != "demo" || doc.Meta.Seed != 7 {
		t.Errorf("metadata lost: %+v", doc)
	}
	if len(doc.Columns) != 4 || doc.Columns[2].Unit != "nm²" || doc.Columns[2].Kind != "float" {
		t.Errorf("schema lost: %+v", doc.Columns)
	}
	if len(doc.Rows) != 2 || doc.Rows[0][0] != "BGC" {
		t.Errorf("rows lost: %+v", doc.Rows)
	}
	if len(doc.Notes) != 1 || doc.Notes[0] != "best: BGC" {
		t.Errorf("notes lost: %+v", doc.Notes)
	}
}

func TestJSONEmptyRowsIsArray(t *testing.T) {
	raw, err := New("e", "empty", Col("n", Int)).JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"rows": []`) {
		t.Errorf("nil rows must serialize as [], got %s", raw)
	}
}

func TestMarkdownForm(t *testing.T) {
	md := sample().Markdown()
	for _, want := range []string{
		"## Demo result",
		"| code | length | area [nm²] | pass |",
		"|---|---|---|---|",
		"| BGC | 10 | 192 | true |",
		"best: BGC",
	} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q in:\n%s", want, md)
		}
	}
}

func TestTextFallbackAndOverride(t *testing.T) {
	ds := sample()
	generic := ds.Text()
	for _, want := range []string{"Demo result", "BGC", "best: BGC"} {
		if !strings.Contains(generic, want) {
			t.Errorf("generic text missing %q", want)
		}
	}
	ds.SetText(func() string { return "full-fidelity figure\n" })
	if ds.Text() != "full-fidelity figure\n" {
		t.Error("SetText renderer not used")
	}
	// The other formats stay columnar regardless of the text override.
	if !strings.Contains(ds.CSV(), "BGC,10,192,true") {
		t.Error("CSV affected by SetText")
	}
}

func TestCloneIsIndependent(t *testing.T) {
	orig := sample()
	cp := orig.Clone()
	cp.AddRow("HC", 6, 300.0, true)
	cp.Note("clone-only")
	cp.Meta.ConfigHash = "changed"
	cp.Columns[0].Name = "renamed"
	if len(orig.Rows) != 2 || len(orig.Notes) != 1 {
		t.Errorf("mutating the clone leaked into the original: %d rows, %d notes",
			len(orig.Rows), len(orig.Notes))
	}
	if orig.Meta.ConfigHash != "abc" || orig.Columns[0].Name != "code" {
		t.Error("clone shares Meta or Columns with the original")
	}
	// The clone carries everything the original had at copy time.
	if cp.Name != orig.Name || len(cp.Rows) != 3 || cp.Meta.Seed != 7 {
		t.Error("clone lost data from the original")
	}
	if orig.CSV() != sample().CSV() {
		t.Error("original serialization changed after clone mutation")
	}
}

func TestRenderAndFormatNames(t *testing.T) {
	if Formats() != "text|json|csv|md" {
		t.Errorf("Formats() = %q", Formats())
	}
	names := map[Format]string{
		FormatText: "text", FormatJSON: "json",
		FormatCSV: "csv", FormatMarkdown: "md",
	}
	for f, want := range names {
		if f.String() != want {
			t.Errorf("%v.String() = %q, want %q", int(f), f.String(), want)
		}
		var sb strings.Builder
		if err := sample().Render(&sb, f); err != nil {
			t.Fatalf("Render(%s): %v", want, err)
		}
		if !strings.Contains(sb.String(), "BGC") {
			t.Errorf("Render(%s) missing row data:\n%s", want, sb.String())
		}
	}
	if got := Format(42).String(); got != "format(42)" {
		t.Errorf("unknown format String() = %q", got)
	}
	if err := sample().Render(&strings.Builder{}, Format(42)); err == nil {
		t.Error("Render accepted an unknown format")
	}
}

func TestParseFormat(t *testing.T) {
	cases := map[string]Format{
		"text": FormatText, "TXT": FormatText,
		"json": FormatJSON, " md ": FormatMarkdown,
		"markdown": FormatMarkdown, "csv": FormatCSV,
	}
	for in, want := range cases {
		got, err := ParseFormat(in)
		if err != nil || got != want {
			t.Errorf("ParseFormat(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseFormat("yaml"); err == nil {
		t.Error("unknown format accepted")
	}
}

func TestFingerprintStable(t *testing.T) {
	type cfg struct{ A, B int }
	a := Fingerprint(cfg{1, 2})
	if a != Fingerprint(cfg{1, 2}) {
		t.Error("fingerprint not deterministic")
	}
	if a == Fingerprint(cfg{1, 3}) {
		t.Error("fingerprint ignores field changes")
	}
	if len(a) != 16 {
		t.Errorf("fingerprint %q not 16 hex chars", a)
	}
}

func TestWriteJSONArray(t *testing.T) {
	var sb strings.Builder
	if err := WriteJSONArray(&sb, []*Dataset{sample(), sample()}); err != nil {
		t.Fatal(err)
	}
	var docs []map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &docs); err != nil {
		t.Fatalf("invalid JSON array: %v", err)
	}
	if len(docs) != 2 {
		t.Fatalf("array has %d elements", len(docs))
	}
}

// TestConcat pins the chunk-assembly primitive of the jobs layer: rows
// from schema-identical parts concatenate in input order without
// re-rendering, the first part supplies name/title/meta/notes, and the
// result is independent of its inputs.
func TestConcat(t *testing.T) {
	a := New("sweep", "part a", Col("code", String), Col("area", Float))
	a.AddRow("BGC", 192.0)
	a.Note("from chunk 0")
	b := New("sweep", "part b", Col("code", String), Col("area", Float))
	b.AddRow("TC", 259.5)
	b.AddRow("GC", 200.25)

	out, err := Concat(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if out.Name != "sweep" || out.Title != "part a" {
		t.Errorf("identity not taken from the first part: %q %q", out.Name, out.Title)
	}
	if len(out.Rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(out.Rows))
	}
	if out.Rows[0][0] != "BGC" || out.Rows[1][0] != "TC" || out.Rows[2][0] != "GC" {
		t.Errorf("rows out of input order: %v", out.Rows)
	}
	if len(out.Notes) != 1 {
		t.Errorf("notes not taken from the first part: %v", out.Notes)
	}
	// Mutating the result must not reach back into the parts.
	out.Rows[2][0] = "mutated"
	if b.Rows[1][0] != "GC" {
		t.Error("concat aliases a part's row storage")
	}

	single, err := Concat(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(single.Rows) != 1 || single.Rows[0][0] != "BGC" {
		t.Errorf("single-part concat lost rows: %v", single.Rows)
	}
}

func TestConcatRejections(t *testing.T) {
	a := New("sweep", "", Col("code", String))
	if _, err := Concat(); err == nil {
		t.Error("zero-part concat must fail: no schema to carry")
	}
	renamed := New("other", "", Col("code", String))
	if _, err := Concat(a, renamed); err == nil {
		t.Error("name mismatch must fail")
	}
	reshaped := New("sweep", "", Col("code", String), Col("extra", Int))
	if _, err := Concat(a, reshaped); err == nil {
		t.Error("schema mismatch must fail")
	}
}
