package lint_test

import (
	"encoding/json"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"nwdec/internal/lint"
)

// newTestLoader returns a loader rooted at the repository module.
func newTestLoader(t *testing.T) *lint.Loader {
	t.Helper()
	loader, err := lint.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	return loader
}

// wantRe extracts the quoted regexps of a `// want` annotation.
var wantRe = regexp.MustCompile("`([^`]+)`")

// expectation is one expected diagnostic: a position plus a pattern the
// "rule: message" rendering must match.
type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
}

// wants parses the `// want` annotations of a fixture package.
func wants(t *testing.T, pkg *lint.Package) []expectation {
	t.Helper()
	var out []expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				if !strings.HasPrefix(text, "// want ") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				matches := wantRe.FindAllStringSubmatch(text, -1)
				if len(matches) == 0 {
					t.Fatalf("%s:%d: want annotation without backquoted pattern: %s", pos.Filename, pos.Line, text)
				}
				for _, m := range matches {
					out = append(out, expectation{file: pos.Filename, line: pos.Line, pattern: regexp.MustCompile(m[1])})
				}
			}
		}
	}
	return out
}

// matchDiagnostics verifies the diagnostics against the expectations:
// every expectation is satisfied on its exact line and every diagnostic
// is expected.
func matchDiagnostics(t *testing.T, diags []lint.Diagnostic, expects []expectation) {
	t.Helper()
	used := make([]bool, len(diags))
	for _, e := range expects {
		found := false
		for i, d := range diags {
			if used[i] || d.Position.Filename != e.file || d.Position.Line != e.line {
				continue
			}
			if e.pattern.MatchString(d.Rule + ": " + d.Message) {
				used[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("missing diagnostic at %s:%d matching %q", filepath.Base(e.file), e.line, e.pattern)
		}
	}
	for i, d := range diags {
		if !used[i] {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
}

// TestAnalyzers drives every analyzer over its fixture package and
// checks the produced diagnostics against the `// want` annotations.
func TestAnalyzers(t *testing.T) {
	loader := newTestLoader(t)
	cfg := lint.DefaultConfig(loader.Module)
	cases := []struct {
		fixture string // directory under testdata/src
		path    string // import path the fixture is analyzed under
		rules   string // rule subset to run
	}{
		{"determinism", "nwdec/internal/code", "determinism"},
		{"ctxfirst", "nwdec/internal/experiments", "ctxfirst"},
		{"nogoroutine", "nwdec/internal/crossbar", "nogoroutine"},
		{"nogoroutine_par", "nwdec/internal/par", "nogoroutine"},
		{"errcheck", "nwdec/internal/readout", "errcheck"},
		{"printbound", "nwdec/internal/geometry", "printbound"},
		{"printbound_main", "nwdec/cmd/fixture", "printbound"},
		{"ctxfirst_alias", "nwdec/internal/sweep", "ctxfirst"},
		{"typedatomic", "nwdec/internal/engine", "typedatomic"},
	}
	for _, tc := range cases {
		t.Run(tc.fixture, func(t *testing.T) {
			pkg, err := loader.LoadDir(filepath.Join("testdata", "src", tc.fixture), tc.path)
			if err != nil {
				t.Fatal(err)
			}
			analyzers, err := lint.ByName(tc.rules)
			if err != nil {
				t.Fatal(err)
			}
			diags := lint.Run([]*lint.Package{pkg}, analyzers, cfg)
			matchDiagnostics(t, diags, wants(t, pkg))
		})
	}
}

// TestDatasetJSON pins the -json interchange shape: the diagnostics
// dataset round-trips through the standard dataset JSON renderer with
// the five-column schema.
func TestDatasetJSON(t *testing.T) {
	diags := []lint.Diagnostic{
		{Rule: "determinism", Message: "m1"},
		{Rule: "errcheck", Message: "m2"},
	}
	diags[0].Position.Filename = "a.go"
	diags[0].Position.Line = 3
	diags[0].Position.Column = 7
	ds := lint.Dataset(diags)
	raw, err := ds.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Name    string `json:"name"`
		Columns []struct {
			Name string `json:"name"`
			Kind string `json:"kind"`
		} `json:"columns"`
		Rows [][]any `json:"rows"`
	}
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got.Name != "nwlint" {
		t.Errorf("dataset name = %q, want nwlint", got.Name)
	}
	wantCols := []string{"file", "line", "col", "rule", "message"}
	if len(got.Columns) != len(wantCols) {
		t.Fatalf("got %d columns, want %d", len(got.Columns), len(wantCols))
	}
	for i, c := range got.Columns {
		if c.Name != wantCols[i] {
			t.Errorf("column %d = %q, want %q", i, c.Name, wantCols[i])
		}
	}
	if len(got.Rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(got.Rows))
	}
	if got.Rows[0][0] != "a.go" || got.Rows[0][3] != "determinism" {
		t.Errorf("row 0 = %v", got.Rows[0])
	}
}

// TestByName pins rule-subset resolution and its error message.
func TestByName(t *testing.T) {
	as, err := lint.ByName("determinism, errcheck")
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 2 || as[0].Name != "determinism" || as[1].Name != "errcheck" {
		t.Errorf("ByName = %v", as)
	}
	if _, err := lint.ByName("nope"); err == nil || !strings.Contains(err.Error(), "unknown rule") {
		t.Errorf("err = %v, want unknown rule", err)
	}
}

// TestModulePackages checks the ./... expansion: module packages are
// found, testdata fixture packages are not.
func TestModulePackages(t *testing.T) {
	loader := newTestLoader(t)
	paths, err := loader.ModulePackages()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"nwdec/internal/lint":     false,
		"nwdec/internal/par":      false,
		"nwdec/cmd/nwlint":        false,
		"nwdec/scripts":           false,
		"nwdec/scripts/covergate": false,
	}
	for _, p := range paths {
		if strings.Contains(p, "testdata") {
			t.Errorf("testdata package leaked into module listing: %s", p)
		}
		if _, ok := want[p]; ok {
			want[p] = true
		}
	}
	for p, seen := range want {
		if !seen {
			t.Errorf("module listing is missing %s", p)
		}
	}
}

// TestCleanTree is the self-hosting gate: the repository's own packages
// must be free of diagnostics, the same invariant scripts/ci.sh
// enforces with the cmd/nwlint step.
func TestCleanTree(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	loader := newTestLoader(t)
	paths, err := loader.ModulePackages()
	if err != nil {
		t.Fatal(err)
	}
	pkgs := make([]*lint.Package, 0, len(paths))
	for _, p := range paths {
		pkg, err := loader.Load(p)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, pkg)
	}
	for _, d := range lint.Run(pkgs, lint.All(), lint.DefaultConfig(loader.Module)) {
		t.Errorf("%s", d)
	}
}
