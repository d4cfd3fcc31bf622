package lint_test

import (
	"context"
	"path/filepath"
	"testing"

	"nwdec/internal/lint"
)

// loadFixture loads one testdata fixture under the given import path
// with a fresh loader (fixtures that import real module packages must
// not share a loader with fixtures loaded under those packages' paths).
func loadFixture(t *testing.T, loader *lint.Loader, fixture, asPath string) *lint.Package {
	t.Helper()
	pkg, err := loader.LoadDir(filepath.Join("testdata", "src", fixture), asPath)
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

// TestScratchConfine drives the scratch-confinement rule over a fixture
// calling the real internal/par entry points: every escape shape is
// flagged, the arena-view / element-read / per-item-result patterns are
// not.
func TestScratchConfine(t *testing.T) {
	loader := newTestLoader(t)
	pkg := loadFixture(t, loader, "scratchconfine", "nwdec/internal/yield")
	analyzers, err := lint.ByName("scratchconfine")
	if err != nil {
		t.Fatal(err)
	}
	diags := lint.Run([]*lint.Package{pkg}, analyzers, lint.DefaultConfig(loader.Module))
	matchDiagnostics(t, diags, wants(t, pkg))
}

// TestLayering drives the layering rule over a fixture analyzed under
// the internal/obs path that imports both a denied package and a
// restricted renderer.
func TestLayering(t *testing.T) {
	loader := newTestLoader(t)
	pkg := loadFixture(t, loader, "layering", "nwdec/internal/obs")
	analyzers, err := lint.ByName("layering")
	if err != nil {
		t.Fatal(err)
	}
	diags := lint.Run([]*lint.Package{pkg}, analyzers, lint.DefaultConfig(loader.Module))
	matchDiagnostics(t, diags, wants(t, pkg))
}

// TestWorkersByteIdentical pins the runner's determinism contract: the
// rendered diagnostic stream over a mixed set of real and fixture
// packages (some importing others, non-empty diagnostics) is
// byte-identical at every worker count.
func TestWorkersByteIdentical(t *testing.T) {
	loader := newTestLoader(t)
	var pkgs []*lint.Package
	for _, path := range []string{"nwdec/internal/obs", "nwdec/internal/par", "nwdec/internal/cli"} {
		pkg, err := loader.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, pkg)
	}
	pkgs = append(pkgs,
		loadFixture(t, loader, "errcheck", "nwdec/internal/errfixa"),
		loadFixture(t, loader, "errcheck", "nwdec/internal/errfixb"),
	)
	cfg := lint.DefaultConfig(loader.Module)

	render := func(workers int) []string {
		diags, err := lint.RunParallel(context.Background(), workers, pkgs, lint.All(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(diags))
		for i, d := range diags {
			out[i] = d.String()
		}
		return out
	}
	serial := render(1)
	if len(serial) == 0 {
		t.Fatal("fixture set produced no diagnostics; the determinism check is vacuous")
	}
	for _, workers := range []int{2, 8} {
		parallel := render(workers)
		if len(parallel) != len(serial) {
			t.Fatalf("workers=%d: %d diagnostics, want %d", workers, len(parallel), len(serial))
		}
		for i := range serial {
			if parallel[i] != serial[i] {
				t.Errorf("workers=%d: diagnostic %d = %q, want %q", workers, i, parallel[i], serial[i])
			}
		}
	}
}

// TestConcurrentAnalysis runs all analyzers concurrently over
// independent copies of a fixture package — one package per worker —
// so `go test -race ./internal/lint` exercises the shared state of the
// runner (file set, imported types, config) under real parallelism.
func TestConcurrentAnalysis(t *testing.T) {
	loader := newTestLoader(t)
	// Independent copies of the same sources under distinct deterministic
	// paths, analyzed side by side.
	paths := []string{"nwdec/internal/code", "nwdec/internal/mspt", "nwdec/internal/physics"}
	var pkgs []*lint.Package
	for _, p := range paths {
		pkgs = append(pkgs, loadFixture(t, loader, "determinism", p))
	}
	cfg := lint.DefaultConfig(loader.Module)
	diags, err := lint.RunParallel(context.Background(), len(pkgs), pkgs, lint.All(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	single := lint.Run(pkgs[:1], lint.All(), cfg)
	if len(single) == 0 {
		t.Fatal("fixture produced no diagnostics")
	}
	if len(diags) != len(paths)*len(single) {
		t.Errorf("got %d diagnostics from %d copies, want %d", len(diags), len(paths), len(paths)*len(single))
	}
}
