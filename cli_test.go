package nwdec

// CLI smoke tests: build each command once and drive it end to end the way
// a user would, asserting on real stdout. These are the regression net for
// the tools' flag surfaces.

import (
	"encoding/json"
	"encoding/xml"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildCmd compiles one command into dir and returns the binary path.
func buildCmd(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

func run(t *testing.T, bin string, args ...string) (stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var so, se strings.Builder
	cmd.Stdout = &so
	cmd.Stderr = &se
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %v: %v\nstderr: %s", filepath.Base(bin), args, err, se.String())
	}
	return so.String(), se.String()
}

// runFail runs a command expected to exit non-zero and returns its exit
// code and stderr.
func runFail(t *testing.T, bin string, args ...string) (code int, stderr string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var se strings.Builder
	cmd.Stderr = &se
	err := cmd.Run()
	if err == nil {
		t.Fatalf("%s %v: expected failure, got success", filepath.Base(bin), args)
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("%s %v: %v", filepath.Base(bin), args, err)
	}
	return ee.ExitCode(), se.String()
}

// parseJSONDataset asserts out is a valid dataset JSON document and returns
// its parsed form.
func parseJSONDataset(t *testing.T, out string) map[string]any {
	t.Helper()
	var doc map[string]any
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out)
	}
	for _, key := range []string{"name", "columns", "rows"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("dataset JSON missing %q:\n%s", key, out)
		}
	}
	return doc
}

func TestCLISmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke tests build binaries; skipped in -short mode")
	}
	dir := t.TempDir()

	t.Run("nwcodes", func(t *testing.T) {
		bin := buildCmd(t, dir, "nwcodes")
		out, _ := run(t, bin, "-type", "gc", "-base", "2", "-length", "8", "-count", "6")
		for _, want := range []string{"GC", "Ω=16", "00001111", "2 digit changes", "transitions:"} {
			if !strings.Contains(out, want) {
				t.Errorf("nwcodes output missing %q:\n%s", want, out)
			}
		}
	})

	t.Run("nwdecoder", func(t *testing.T) {
		bin := buildCmd(t, dir, "nwdecoder")
		out, _ := run(t, bin, "-type", "bgc", "-length", "10")
		for _, want := range []string{"BGC", "M=10", "cave yield", "bit area"} {
			if !strings.Contains(out, want) {
				t.Errorf("report missing %q", want)
			}
		}
		// JSON export parses and carries the paper-consistent Φ.
		out, _ = run(t, bin, "-type", "gc", "-length", "10", "-export", "json")
		var exp struct {
			Phi int `json:"phi"`
			N   int `json:"n"`
		}
		if err := json.Unmarshal([]byte(out), &exp); err != nil {
			t.Fatalf("export json: %v", err)
		}
		if exp.Phi != 2*exp.N {
			t.Errorf("exported Φ=%d for N=%d, want 2N", exp.Phi, exp.N)
		}
		// SVG export is well-formed XML.
		out, _ = run(t, bin, "-type", "bgc", "-length", "8", "-export", "svg")
		dec := xml.NewDecoder(strings.NewReader(out))
		for {
			_, err := dec.Token()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("svg export not well-formed: %v", err)
			}
		}
		if !strings.HasPrefix(out, "<svg") {
			t.Error("svg export missing root element")
		}
		// Optimizer path.
		out, _ = run(t, bin, "-optimize", "area")
		if !strings.Contains(out, "optimum over all families") {
			t.Error("optimizer banner missing")
		}
	})

	t.Run("nwsim", func(t *testing.T) {
		bin := buildCmd(t, dir, "nwsim")
		out, _ := run(t, bin, "-exp", "fig5")
		for _, want := range []string{"Fig. 5", "ternary", "paper: 17%"} {
			if !strings.Contains(out, want) {
				t.Errorf("fig5 output missing %q", want)
			}
		}
		out, _ = run(t, bin, "-exp", "headline")
		if strings.Contains(out, "NO") {
			t.Errorf("headline claims failing:\n%s", out)
		}
	})

	t.Run("nwmem", func(t *testing.T) {
		bin := buildCmd(t, dir, "nwmem")
		out, stderr := run(t, bin, "-data", "smoke test payload", "-seed", "7")
		if strings.TrimSpace(out) != "smoke test payload" {
			t.Errorf("payload round trip = %q", out)
		}
		if !strings.Contains(stderr, "March C-") || !strings.Contains(stderr, "ECC") {
			t.Errorf("controller log incomplete:\n%s", stderr)
		}
	})

	t.Run("nwsweep", func(t *testing.T) {
		bin := buildCmd(t, dir, "nwsweep")
		out, _ := run(t, bin, "-types", "bgc", "-lengths", "10")
		lines := strings.Split(strings.TrimSpace(out), "\n")
		if len(lines) != 2 {
			t.Fatalf("want header + 1 row, got %d lines", len(lines))
		}
		if !strings.HasPrefix(lines[0], "code,length") || !strings.HasPrefix(lines[1], "BGC,10") {
			t.Errorf("sweep CSV wrong:\n%s", out)
		}
	})
}

// TestCLIObservability drives the -metrics/-metrics-out/-pprof surface:
// the snapshot renders as a dataset with a schema identical across worker
// counts, experiment stdout stays byte-identical with metrics on or off,
// profiles land in the requested directory, and a bad metrics format is a
// usage error.
func TestCLIObservability(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI tests build binaries; skipped in -short mode")
	}
	dir := t.TempDir()
	bin := buildCmd(t, dir, "nwsim")

	base := []string{"-exp", "montecarlo", "-trials", "4", "-seed", "1"}
	baseOut, _ := run(t, bin, base...)

	metricNames := func(doc map[string]any) map[string]bool {
		rows, _ := doc["rows"].([]any)
		names := make(map[string]bool, len(rows))
		for _, r := range rows {
			cells, _ := r.([]any)
			if len(cells) > 0 {
				if name, ok := cells[0].(string); ok {
					names[name] = true
				}
			}
		}
		return names
	}

	var schemas []string
	for _, w := range []string{"1", "8"} {
		mfile := filepath.Join(dir, "metrics-"+w+".json")
		args := append([]string{"-workers", w, "-metrics", "json", "-metrics-out", mfile}, base...)
		out, _ := run(t, bin, args...)
		if out != baseOut {
			t.Errorf("workers=%s: stdout changed when -metrics is on", w)
		}
		data, err := os.ReadFile(mfile)
		if err != nil {
			t.Fatalf("workers=%s: %v", w, err)
		}
		doc := parseJSONDataset(t, string(data))
		if doc["name"] != "metrics" {
			t.Errorf("workers=%s: dataset name = %v, want metrics", w, doc["name"])
		}
		cols, err := json.Marshal(doc["columns"])
		if err != nil {
			t.Fatal(err)
		}
		schemas = append(schemas, string(cols))
		names := metricNames(doc)
		for _, want := range []string{
			"par/tasks", "par/worker/00/tasks", "par/task_ns",
			"experiments/runs", "experiments/montecarlo/runs",
			"span/experiment/montecarlo",
			"montecarlo/trials", "montecarlo/rng_substreams",
		} {
			if !names[want] {
				t.Errorf("workers=%s: metric %q missing from snapshot", w, want)
			}
		}
	}
	if schemas[0] != schemas[1] {
		t.Errorf("snapshot schema differs across worker counts:\n%s\n%s", schemas[0], schemas[1])
	}

	// Without -metrics-out the snapshot goes to stderr, keeping stdout a
	// clean data stream.
	out, stderr := run(t, bin, "-exp", "montecarlo", "-trials", "4", "-seed", "1", "-metrics", "json")
	if out != baseOut {
		t.Error("stdout changed when metrics render to stderr")
	}
	doc := parseJSONDataset(t, stderr)
	if doc["name"] != "metrics" {
		t.Errorf("stderr dataset name = %v, want metrics", doc["name"])
	}

	// -pprof captures CPU/heap profiles and an execution trace.
	pdir := filepath.Join(dir, "prof")
	run(t, bin, "-exp", "fig5", "-pprof", pdir)
	for _, name := range []string{"cpu.pprof", "heap.pprof", "trace.out"} {
		fi, err := os.Stat(filepath.Join(pdir, name))
		if err != nil {
			t.Errorf("-pprof artifact: %v", err)
			continue
		}
		if fi.Size() == 0 {
			t.Errorf("-pprof artifact %s is empty", name)
		}
	}

	// An unknown metrics format is a usage error.
	if code, _ := runFail(t, bin, "-exp", "fig5", "-metrics", "yaml"); code != 2 {
		t.Errorf("bad -metrics format: exit %d, want 2", code)
	}
}

// TestCLIStructuredOutput drives the shared -format/-timeout surface of
// every binary: JSON parses as a dataset document, CSV carries the schema
// header, Markdown renders a pipe table, a bad format is a usage error
// (exit 2) and an expired -timeout is a runtime error (exit 1).
func TestCLIStructuredOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI tests build binaries; skipped in -short mode")
	}
	dir := t.TempDir()

	t.Run("nwsim-formats", func(t *testing.T) {
		bin := buildCmd(t, dir, "nwsim")
		out, _ := run(t, bin, "-exp", "fig7", "-format", "json")
		doc := parseJSONDataset(t, out)
		if doc["name"] != "fig7" {
			t.Errorf("dataset name = %v", doc["name"])
		}
		meta, _ := doc["meta"].(map[string]any)
		if meta["experiment"] != "fig7" || meta["configHash"] == "" {
			t.Errorf("metadata incomplete: %v", meta)
		}
		out, _ = run(t, bin, "-exp", "fig7", "-format", "csv")
		if !strings.HasPrefix(out, "code,M,yield,") {
			t.Errorf("fig7 CSV header wrong:\n%s", out)
		}
		out, _ = run(t, bin, "-exp", "fig7", "-format", "md")
		if !strings.Contains(out, "| code | M | yield") || !strings.Contains(out, "|---|") {
			t.Errorf("fig7 markdown table wrong:\n%s", out)
		}
		// Run-all JSON is one array over all experiments.
		out, _ = run(t, bin, "-exp", "all", "-format", "json", "-trials", "1")
		var docs []map[string]any
		if err := json.Unmarshal([]byte(out), &docs); err != nil {
			t.Fatalf("run-all JSON: %v", err)
		}
		if len(docs) < 15 {
			t.Errorf("run-all JSON has only %d datasets", len(docs))
		}
	})

	t.Run("nwsweep-formats", func(t *testing.T) {
		bin := buildCmd(t, dir, "nwsweep")
		out, _ := run(t, bin, "-types", "bgc", "-lengths", "10", "-format", "json")
		parseJSONDataset(t, out)
		out, _ = run(t, bin, "-types", "bgc", "-lengths", "10", "-format", "md")
		if !strings.Contains(out, "| code | length") {
			t.Errorf("sweep markdown wrong:\n%s", out)
		}
	})

	t.Run("nwdecoder-formats", func(t *testing.T) {
		bin := buildCmd(t, dir, "nwdecoder")
		out, _ := run(t, bin, "-type", "bgc", "-length", "10", "-format", "json")
		doc := parseJSONDataset(t, out)
		if doc["name"] != "design" {
			t.Errorf("dataset name = %v", doc["name"])
		}
		out, _ = run(t, bin, "-type", "bgc", "-length", "10", "-format", "csv")
		if !strings.HasPrefix(out, "code,") || !strings.Contains(out, "BGC") {
			t.Errorf("design CSV wrong:\n%s", out)
		}
	})

	t.Run("nwcodes-formats", func(t *testing.T) {
		bin := buildCmd(t, dir, "nwcodes")
		out, _ := run(t, bin, "-type", "gc", "-length", "8", "-format", "csv")
		if !strings.HasPrefix(out, "index,word,digitChanges") {
			t.Errorf("words CSV header wrong:\n%s", out)
		}
		out, _ = run(t, bin, "-type", "gc", "-length", "8", "-format", "json")
		parseJSONDataset(t, out)
	})

	t.Run("nwmem-formats", func(t *testing.T) {
		bin := buildCmd(t, dir, "nwmem")
		out, _ := run(t, bin, "-data", "smoke test payload", "-seed", "7", "-format", "json")
		doc := parseJSONDataset(t, out)
		if doc["name"] != "nwmem" {
			t.Errorf("dataset name = %v", doc["name"])
		}
	})

	t.Run("nwlint", func(t *testing.T) {
		bin := buildCmd(t, dir, "nwlint")

		// The tree itself must be clean: exit 0, no output.
		out, _ := run(t, bin, "./...")
		if out != "" {
			t.Errorf("clean tree produced output:\n%s", out)
		}

		// -list names the five rules.
		out, _ = run(t, bin, "-list")
		for _, rule := range []string{"determinism", "ctxfirst", "nogoroutine", "errcheck", "printbound"} {
			if !strings.Contains(out, rule) {
				t.Errorf("-list output missing %q:\n%s", rule, out)
			}
		}

		// A seeded fixture violation exits 1 with a positioned diagnostic.
		fixture := filepath.Join("internal", "lint", "testdata", "src", "errcheck")
		cmd := exec.Command(bin, fixture)
		var so, se strings.Builder
		cmd.Stdout = &so
		cmd.Stderr = &se
		err := cmd.Run()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 1 {
			t.Fatalf("fixture run: err = %v (stderr %s), want exit 1", err, se.String())
		}
		if !strings.Contains(so.String(), "errcheck.go:12:2: errcheck:") {
			t.Errorf("diagnostic not positioned:\n%s", so.String())
		}

		// -json renders the diagnostics as a structured dataset.
		cmd = exec.Command(bin, "-json", fixture)
		so.Reset()
		cmd.Stdout = &so
		if err := cmd.Run(); err == nil {
			t.Fatal("json fixture run: expected exit 1")
		}
		doc := parseJSONDataset(t, so.String())
		if doc["name"] != "nwlint" {
			t.Errorf("dataset name = %v", doc["name"])
		}
		if rows, ok := doc["rows"].([]any); !ok || len(rows) == 0 {
			t.Errorf("json dataset has no rows:\n%s", so.String())
		}

		// An unknown rule is a usage error.
		if code, _ := runFail(t, bin, "-rules", "nope"); code != 2 {
			t.Errorf("unknown rule: exit %d, want 2", code)
		}
	})

	t.Run("exit-codes", func(t *testing.T) {
		bin := buildCmd(t, dir, "nwsim")
		code, stderr := runFail(t, bin, "-exp", "fig7", "-format", "yaml")
		if code != 2 {
			t.Errorf("bad format: exit %d, want 2", code)
		}
		if !strings.Contains(stderr, "nwsim:") {
			t.Errorf("usage error not name-prefixed: %q", stderr)
		}
		code, stderr = runFail(t, bin, "-exp", "montecarlo", "-trials", "10000", "-timeout", "1ms")
		if code != 1 {
			t.Errorf("timeout: exit %d, want 1", code)
		}
		if !strings.Contains(stderr, "deadline") {
			t.Errorf("timeout error not reported: %q", stderr)
		}
		code, _ = runFail(t, bin, "-exp", "nope")
		if code != 1 {
			t.Errorf("unknown experiment: exit %d, want 1", code)
		}
		// A design parameter no configuration can be built from is a bad
		// flag value, not a computation failure.
		decoder := buildCmd(t, dir, "nwdecoder")
		code, stderr = runFail(t, decoder, "-length", "7")
		if code != 2 {
			t.Errorf("nwdecoder -length 7: exit %d, want 2 (%s)", code, stderr)
		}
		// The error names the margin factor as given, not the derived
		// margin in volts.
		code, stderr = runFail(t, decoder, "-margin", "-1")
		if code != 2 || !strings.Contains(stderr, "margin factor must be positive and finite, got -1") {
			t.Errorf("nwdecoder -margin -1: exit %d, want 2 with the factor -1 named (%s)", code, stderr)
		}
		sweepBin := buildCmd(t, dir, "nwsweep")
		code, stderr = runFail(t, sweepBin, "-lengths", "5")
		if code != 2 {
			t.Errorf("nwsweep -lengths 5: exit %d, want 2 (%s)", code, stderr)
		}
		// Values no design can be built from are bad flag values, never
		// dropped for a default: a negative wire or bit count, a negative
		// trial count, a non-finite number, a zero sweep axis value,
		// which would be computed at the default and labelled 0, and an
		// unknown code family.
		memBin := buildCmd(t, dir, "nwmem")
		jobStore := filepath.Join(dir, "bad-grid-store")
		for _, tc := range []struct {
			bin  string
			args []string
		}{
			{decoder, []string{"-wires", "-3"}},
			{decoder, []string{"-rawbits", "-5"}},
			{bin, []string{"-exp", "fig7", "-wires", "-3"}},
			{bin, []string{"-exp", "fig5", "-trials", "-5"}},
			{bin, []string{"-markdown", "-trials", "-5"}},
			// A trial count the experiments would scale past MaxInt
			// (noise ×50, readout ×15, montecarlo over 3 designs).
			{bin, []string{"-exp", "noise", "-trials", "4611686018427387904"}},
			{bin, []string{"-exp", "readout", "-trials", "4611686018427387904"}},
			{bin, []string{"-exp", "montecarlo", "-trials", "4611686018427387904"}},
			{bin, []string{"-markdown", "-trials", "4611686018427387904"}},
			// The report is every experiment as Markdown; a flag
			// choosing one experiment or another format contradicts it.
			{bin, []string{"-markdown", "-exp", "fig5"}},
			{bin, []string{"-markdown", "-format", "json"}},
			{sweepBin, []string{"-margins", "0"}},
			{sweepBin, []string{"-job", "-job-store", jobStore, "-margins", "0"}},
			{sweepBin, []string{"-job", "-job-store", jobStore, "-sigmas", "NaN"}},
			{sweepBin, []string{"-job", "-sigmas", "Inf"}},
			{decoder, []string{"-type", "bogus"}},
			{memBin, []string{"-code", "bogus"}},
		} {
			if code, stderr := runFail(t, tc.bin, tc.args...); code != 2 {
				t.Errorf("%s %v: exit %d, want 2 (%s)", filepath.Base(tc.bin), tc.args, code, stderr)
			}
		}
		// A stored spec that describes another job is a corrupt store:
		// resuming must not compute the job the spec does describe.
		store := filepath.Join(dir, "mismatched-store")
		const id = "j-0000000000000000"
		if err := os.MkdirAll(filepath.Join(store, id), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(store, id, "spec.json"), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
		code, stderr = runFail(t, sweepBin, "-resume", id, "-job-store", store)
		if code != 1 || !strings.Contains(stderr, "corrupt") {
			t.Errorf("nwsweep -resume over a mismatched spec: exit %d, want 1 with corruption reported (%s)", code, stderr)
		}
	})
}
