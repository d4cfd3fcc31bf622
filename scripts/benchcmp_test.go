package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// writeBench writes a bench.sh-shaped JSON file mapping names to ns/op.
func writeBench(t *testing.T, dir, name string, ns map[string]float64) string {
	t.Helper()
	return writeBenchAllocs(t, dir, name, ns, nil)
}

// writeBenchAllocs is writeBench with per-benchmark allocs/op (0 when a
// name is missing from allocs).
func writeBenchAllocs(t *testing.T, dir, name string, ns map[string]float64, allocs map[string]float64) string {
	t.Helper()
	entries := []string{`  {"meta": true, "benchtime": "50x", "gomaxprocs": 4, "cpu": "test"}`}
	names := make([]string, 0, len(ns))
	for n := range ns {
		names = append(names, n)
	}
	// Deterministic file contents for stable failure messages.
	sort.Strings(names)
	for _, n := range names {
		entries = append(entries, fmt.Sprintf(`  {"name": %q, "workers": null, "iterations": 50, "ns_per_op": %g, "bytes_per_op": 0, "allocs_per_op": %g}`, n, ns[n], allocs[n]))
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte("[\n"+strings.Join(entries, ",\n")+"\n]\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestDetectsInjectedSlowdown is the gate's self-test: a 2x ns/op slowdown
// injected into BenchmarkParScaling must be flagged, warn-only by default
// and fatal under -strict.
func TestDetectsInjectedSlowdown(t *testing.T) {
	t.Setenv("CI_BENCH_STRICT", "")
	dir := t.TempDir()
	base := writeBench(t, dir, "base.json", map[string]float64{
		"BenchmarkParScaling/workers=1": 200000,
		"BenchmarkParScaling/workers=4": 100000,
		"BenchmarkFig7":                 250000,
	})
	cur := writeBench(t, dir, "cur.json", map[string]float64{
		"BenchmarkParScaling/workers=1": 205000, // within noise
		"BenchmarkParScaling/workers=4": 200000, // injected 2x slowdown
		"BenchmarkFig7":                 240000,
	})

	report, code := run([]string{"-baseline", base, "-current", cur})
	if code != 0 {
		t.Errorf("warn mode exit = %d, want 0\n%s", code, report)
	}
	if !strings.Contains(report, "BenchmarkParScaling/workers=4") || !strings.Contains(report, "<< REGRESSION") {
		t.Errorf("slowdown not flagged:\n%s", report)
	}
	if !strings.Contains(report, "WARNING: 1 regression(s)") {
		t.Errorf("warn summary wrong:\n%s", report)
	}
	if strings.Count(report, "<< REGRESSION") != 1 {
		t.Errorf("want exactly one regression:\n%s", report)
	}

	report, code = run([]string{"-baseline", base, "-current", cur, "-strict"})
	if code != 1 {
		t.Errorf("strict mode exit = %d, want 1\n%s", code, report)
	}

	// CI_BENCH_STRICT=1 flips the default without the flag.
	t.Setenv("CI_BENCH_STRICT", "1")
	if _, code = run([]string{"-baseline", base, "-current", cur}); code != 1 {
		t.Errorf("CI_BENCH_STRICT=1 exit = %d, want 1", code)
	}
}

// TestThresholdBoundary pins the gate exactly at the +-20% default: +19%
// passes, +21% regresses, and a -50% improvement never fails.
func TestThresholdBoundary(t *testing.T) {
	t.Setenv("CI_BENCH_STRICT", "")
	dir := t.TempDir()
	base := writeBench(t, dir, "base.json", map[string]float64{
		"BenchmarkA": 100000,
		"BenchmarkB": 100000,
		"BenchmarkC": 100000,
	})
	cur := writeBench(t, dir, "cur.json", map[string]float64{
		"BenchmarkA": 119000,
		"BenchmarkB": 121000,
		"BenchmarkC": 50000,
	})
	report, code := run([]string{"-baseline", base, "-current", cur, "-strict"})
	if code != 1 {
		t.Fatalf("exit = %d, want 1\n%s", code, report)
	}
	if strings.Count(report, "<< REGRESSION") != 1 || !regressionLine(report, "BenchmarkB") {
		t.Errorf("only BenchmarkB (+21%%) should regress:\n%s", report)
	}

	// A looser threshold lets +21% through.
	if report, code = run([]string{"-baseline", base, "-current", cur, "-strict", "-threshold", "0.25"}); code != 0 {
		t.Errorf("threshold 0.25 exit = %d, want 0\n%s", code, report)
	}
}

// TestDetectsAllocRegression is the alloc gate's self-test: an allocs/op
// increase beyond the threshold must be flagged even when ns/op is flat,
// warn-only by default and fatal under -strict; alloc improvements and
// in-noise drift pass.
func TestDetectsAllocRegression(t *testing.T) {
	t.Setenv("CI_BENCH_STRICT", "")
	dir := t.TempDir()
	base := writeBenchAllocs(t, dir, "base.json",
		map[string]float64{"BenchmarkA": 100000, "BenchmarkB": 100000, "BenchmarkC": 100000},
		map[string]float64{"BenchmarkA": 1000, "BenchmarkB": 1000, "BenchmarkC": 1000})
	cur := writeBenchAllocs(t, dir, "cur.json",
		map[string]float64{"BenchmarkA": 100000, "BenchmarkB": 100000, "BenchmarkC": 100000},
		map[string]float64{"BenchmarkA": 1500, "BenchmarkB": 1190, "BenchmarkC": 200})

	report, code := run([]string{"-baseline", base, "-current", cur})
	if code != 0 {
		t.Errorf("warn mode exit = %d, want 0\n%s", code, report)
	}
	if strings.Count(report, "<< ALLOC-REGRESSION") != 1 {
		t.Errorf("want exactly one alloc regression (BenchmarkA +50%%):\n%s", report)
	}
	if !strings.Contains(report, "WARNING: 1 regression(s)") {
		t.Errorf("warn summary wrong:\n%s", report)
	}
	for _, line := range strings.Split(report, "\n") {
		if strings.Contains(line, "BenchmarkA") && !strings.Contains(line, "<< ALLOC-REGRESSION") {
			t.Errorf("BenchmarkA alloc regression not flagged:\n%s", report)
		}
	}

	if _, code = run([]string{"-baseline", base, "-current", cur, "-strict"}); code != 1 {
		t.Errorf("strict mode exit = %d, want 1", code)
	}
	// A looser threshold lets +50% through.
	if report, code = run([]string{"-baseline", base, "-current", cur, "-strict", "-threshold", "0.6"}); code != 0 {
		t.Errorf("threshold 0.6 exit = %d, want 0\n%s", code, report)
	}
}

// regressionLine reports whether the report flags name as a regression.
func regressionLine(report, name string) bool {
	for _, line := range strings.Split(report, "\n") {
		if strings.Contains(line, name) && strings.Contains(line, "<< REGRESSION") {
			return true
		}
	}
	return false
}

// TestSetDifferences checks the removed/new benchmark notes.
func TestSetDifferences(t *testing.T) {
	t.Setenv("CI_BENCH_STRICT", "")
	dir := t.TempDir()
	base := writeBench(t, dir, "base.json", map[string]float64{"BenchmarkOld": 1000, "BenchmarkBoth": 1000})
	cur := writeBench(t, dir, "cur.json", map[string]float64{"BenchmarkNew": 1000, "BenchmarkBoth": 1000})
	report, code := run([]string{"-baseline", base, "-current", cur})
	if code != 0 {
		t.Fatalf("exit = %d\n%s", code, report)
	}
	if !strings.Contains(report, "BenchmarkOld") || !strings.Contains(report, "only in baseline") {
		t.Errorf("removed benchmark not noted:\n%s", report)
	}
	if !strings.Contains(report, "BenchmarkNew") || !strings.Contains(report, "only in current") {
		t.Errorf("new benchmark not noted:\n%s", report)
	}
}

// TestRefusesMixedGOMAXPROCS: files measured at different GOMAXPROCS are
// not compared (exit 2, both values printed); a different CPU model is
// printed and compared anyway.
func TestRefusesMixedGOMAXPROCS(t *testing.T) {
	t.Setenv("CI_BENCH_STRICT", "")
	dir := t.TempDir()
	base := writeBench(t, dir, "base.json", map[string]float64{"BenchmarkA": 1000})
	data, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	rewrite := func(name, from, to string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(strings.Replace(string(data), from, to, 1)), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	mixed := rewrite("gomaxprocs.json", `"gomaxprocs": 4`, `"gomaxprocs": 2`)
	report, code := run([]string{"-baseline", base, "-current", mixed})
	if code != 2 {
		t.Errorf("differing gomaxprocs: exit %d, want 2\n%s", code, report)
	}
	if !strings.Contains(report, "gomaxprocs 4") || !strings.Contains(report, "gomaxprocs 2") {
		t.Errorf("report does not name both settings:\n%s", report)
	}

	otherCPU := rewrite("cpu.json", `"cpu": "test"`, `"cpu": "other"`)
	report, code = run([]string{"-baseline", base, "-current", otherCPU, "-strict"})
	if code != 0 {
		t.Errorf("differing cpu: exit %d, want 0\n%s", code, report)
	}
	if !strings.Contains(report, `"test"`) || !strings.Contains(report, `"other"`) {
		t.Errorf("report does not name both CPUs:\n%s", report)
	}
}

// TestUsageErrors checks the exit-2 paths.
func TestUsageErrors(t *testing.T) {
	t.Setenv("CI_BENCH_STRICT", "")
	dir := t.TempDir()
	base := writeBench(t, dir, "base.json", map[string]float64{"BenchmarkA": 1000})
	if _, code := run(nil); code != 2 {
		t.Errorf("missing -current: exit %d, want 2", code)
	}
	if _, code := run([]string{"-baseline", base, "-current", filepath.Join(dir, "missing.json")}); code != 2 {
		t.Errorf("unreadable current: exit %d, want 2", code)
	}
	if _, code := run([]string{"-baseline", base, "-current", base, "-threshold", "0"}); code != 2 {
		t.Errorf("zero threshold: exit %d, want 2", code)
	}
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte("[]\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, code := run([]string{"-baseline", empty, "-current", base}); code != 2 {
		t.Errorf("empty baseline: exit %d, want 2", code)
	}
	// The committed repository baseline itself must parse.
	if _, code := run([]string{"-baseline", "../BENCH_parallel.json", "-current", "../BENCH_parallel.json"}); code != 0 {
		t.Error("committed baseline does not compare clean against itself")
	}
}
