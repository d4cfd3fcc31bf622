package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"nwdec/internal/cli"
	"nwdec/internal/dataset"
	"nwdec/internal/engine"
)

// childEnv makes the test binary run the benchmark itself, for the signal
// test; its value is the scratch base directory.
const childEnv = "PERFBENCH_CHILD_BASE"

func TestMain(m *testing.M) {
	if base := os.Getenv(childEnv); base != "" {
		cfg := config{workload: "grid-job", seed: 1, seconds: time.Minute, root: "..", base: base, stderr: os.Stderr}
		os.Exit(mainRun(cfg, os.Stdout))
	}
	// The signal package starts its watcher goroutine on first use and
	// keeps it for the process; start it before any baseline is taken.
	_, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	stop()
	os.Exit(m.Run())
}

// sockets counts the process's open socket descriptors.
func sockets(t *testing.T) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc: %v", err)
	}
	n := 0
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && strings.HasPrefix(target, "socket:") {
			n++
		}
	}
	return n
}

// settled waits until the goroutine count is back to at most want.
func settled(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100 && n > want; i++ {
		time.Sleep(20 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// assertClean checks that a run left no scratch directory, socket or
// goroutine behind.
func assertClean(t *testing.T, base string, goroutines, socks int) {
	t.Helper()
	entries, err := os.ReadDir(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "run-") {
			t.Errorf("scratch directory %s survived the run", e.Name())
		}
	}
	if n := settled(goroutines); n > goroutines {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines after the run, %d before:\n%s", n, goroutines, buf[:runtime.Stack(buf, true)])
	}
	if n := sockets(t); n > socks {
		t.Errorf("%d sockets open after the run, %d before", n, socks)
	}
}

// TestRunsReportEveryMetric runs each workload briefly, untraced and
// traced, and checks the result line: every declared metric with its
// unit, no failures, and nothing left running.
func TestRunsReportEveryMetric(t *testing.T) {
	for _, name := range []string{"serve-zipf", "grid-job", "paper"} {
		for _, trace := range []bool{false, true} {
			name, trace := name, trace
			t.Run(name+map[bool]string{false: "/untraced", true: "/traced"}[trace], func(t *testing.T) {
				base := t.TempDir()
				goroutines, socks := runtime.NumGoroutine(), sockets(t)
				var out, errs bytes.Buffer
				cfg := config{workload: name, seed: 7, seconds: time.Second, trace: trace, root: "..", base: base,
					spanFile: filepath.Join(base, "spans.jsonl"), stderr: &errs}
				if code := mainRun(cfg, &out); code != 0 {
					t.Fatalf("exit %d: %s", code, errs.String())
				}
				assertClean(t, base, goroutines, socks)
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res struct {
					Correct   bool
					Attempted int64
					Failed    int64
					Metrics   map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d: %s", res.Correct, res.Attempted, res.Failed, errs.String())
				}
				want := endToEnd
				if trace {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s [%s] missing or with unit %q", m.Name, m.Unit, got.Unit)
					}
					if !trace && got.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
				for _, m := range append(append([]benchMetric{}, want...), benchMetric{Name: "failed_ratio", Unit: "ratio"}) {
					if !strings.Contains(out.String(), "metric "+m.Name+" ") {
						t.Errorf("report has no line for %s", m.Name)
					}
				}
			})
		}
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json declares exactly the
// metrics the program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []benchMetric `json:"end_to_end"`
		PerLayer  []benchMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not implemented", w.Name)
		}
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	same := func(kind string, got, want []benchMetric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, program %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}

// newEnv is a run environment for the check tests.
func newEnv(t *testing.T) *env {
	return &env{cfg: config{seed: 3, root: "..", work: t.TempDir(), stderr: io.Discard}}
}

// corrupt changes the last cell of a dataset's first row.
func corrupt(ds *dataset.Dataset) *dataset.Dataset {
	bad := ds.Clone()
	row := append([]any(nil), bad.Rows[0]...)
	switch v := row[len(row)-1].(type) {
	case float64:
		row[len(row)-1] = v + 1
	case int:
		row[len(row)-1] = v + 1
	case string:
		row[len(row)-1] = v + "x"
	}
	bad.Rows[0] = row
	return bad
}

func TestPaperChecksCatchCorruption(t *testing.T) {
	e := newEnv(t)
	inst, err := paperWorkload{}.setup(context.Background(), e, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := inst.(*paperInstance)
	if e.failed.Load() != 0 {
		t.Fatalf("clean pass failed %d checks", e.failed.Load())
	}
	eng, err := engine.New(engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dss := make([]*dataset.Dataset, len(p.names))
	for i, name := range p.names {
		resp, err := eng.Do(context.Background(), engine.Request{Kind: engine.KindExperiment, Experiment: name, Seed: e.cfg.seed, Trials: paperTrials})
		if err != nil {
			t.Fatal(err)
		}
		dss[i] = resp.Dataset
	}
	var text bytes.Buffer
	if err := cli.RenderAll(&text, dataset.FormatText, dss); err != nil {
		t.Fatal(err)
	}
	p.verify(dss, text.Bytes())
	if e.failed.Load() != 0 {
		t.Fatalf("clean outputs failed %d checks", e.failed.Load())
	}
	for i, name := range p.names {
		if name != "fig7" && name != "spares" { // one golden, one checked against the first pass
			continue
		}
		bad := append([]*dataset.Dataset(nil), dss...)
		bad[i] = corrupt(dss[i])
		before := e.failed.Load()
		p.verify(bad, text.Bytes())
		if e.failed.Load() == before {
			t.Errorf("corrupt %s passed the checks", name)
		}
	}
	before := e.failed.Load()
	p.verify(dss, append(text.Bytes(), 'x'))
	if e.failed.Load() == before {
		t.Error("corrupt text output passed the checks")
	}
}

func TestGridChecksCatchCorruption(t *testing.T) {
	e := newEnv(t)
	inst, err := gridWorkload{}.setup(context.Background(), e, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := inst.(*gridInstance)
	if e.failed.Load() != 0 {
		t.Fatalf("clean pass failed %d checks", e.failed.Load())
	}
	ref, err := dataset.ParseJSON(bytes.NewReader(g.ref))
	if err != nil {
		t.Fatal(err)
	}
	if g.ref, err = corrupt(ref).JSON(); err != nil {
		t.Fatal(err)
	}
	if _, err := g.pass(context.Background()); err != nil {
		t.Fatal(err)
	}
	if e.failed.Load() == 0 {
		t.Error("a pass against a corrupt reference passed the checks")
	}
}

func TestServeChecksCatchCorruption(t *testing.T) {
	e := newEnv(t)
	inst, err := serveWorkload{}.setup(context.Background(), e, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := inst.(*serveInstance)
	defer s.close()
	if e.failed.Load() != 0 {
		t.Fatalf("clean warm-up failed %d checks", e.failed.Load())
	}
	var buf bytes.Buffer
	p := int(s.stream[0])
	resp, err := s.send(context.Background(), p, 0, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !s.verify(p, resp, &buf) {
		t.Fatal("a clean response failed its check")
	}
	wrongKey := *resp
	wrongKey.Key = "design/0"
	if s.verify(p, &wrongKey, &buf) {
		t.Error("a response with another key passed")
	}
	buf.Reset()
	if err := corrupt(resp.Dataset).Render(&buf, dataset.FormatJSON); err != nil {
		t.Fatal(err)
	}
	if s.verify(p, resp, &buf) {
		t.Error("a corrupt response passed")
	}
	before := e.failed.Load()
	s.hashes[p].Store(s.hashes[p].Load() ^ 2)
	if err := s.check(context.Background()); err != nil {
		t.Fatal(err)
	}
	if e.failed.Load() == before && s.hashes[p].Load() != 0 {
		// The seeded sample may skip p; corrupt every key and retry.
		for i := range s.hashes {
			if h := s.hashes[i].Load(); h != 0 {
				s.hashes[i].Store(h ^ 2)
			}
		}
		if err := s.check(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if e.failed.Load() == before {
		t.Error("the fresh-engine sample check passed corrupt hashes")
	}
}

// TestWorkloadErrorCleansUp fails a run in set-up (no golden files) and
// checks the exit code and that nothing is left behind.
func TestWorkloadErrorCleansUp(t *testing.T) {
	base := t.TempDir()
	goroutines, socks := runtime.NumGoroutine(), sockets(t)
	var out bytes.Buffer
	cfg := config{workload: "paper", seed: 1, seconds: time.Second, root: t.TempDir(), base: base, stderr: io.Discard}
	if code := mainRun(cfg, &out); code == 0 {
		t.Fatal("a run without golden files exited 0")
	}
	if out.Len() != 0 {
		t.Errorf("a failed run printed %q", out.String())
	}
	assertClean(t, base, goroutines, socks)
}

// TestSIGTERMCleansUp runs the benchmark as a child process, sends it
// SIGTERM while it measures, with its stderr still read or already closed
// (a parent that went away), and checks that it exits non-zero without a
// result and removes its scratch directory.
func TestSIGTERMCleansUp(t *testing.T) {
	for _, closeStderr := range []bool{false, true} {
		closeStderr := closeStderr
		t.Run(map[bool]string{false: "stderr-open", true: "stderr-closed"}[closeStderr], func(t *testing.T) {
			sigterm(t, closeStderr)
		})
	}
}

func sigterm(t *testing.T, closeStderr bool) {
	base := t.TempDir()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), childEnv+"="+base)
	var out bytes.Buffer
	cmd.Stdout = &out
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		signalled := false
		for !signalled && sc.Scan() {
			if strings.Contains(sc.Text(), "measuring") {
				signalled = true
				if closeStderr {
					if err := stderr.Close(); err != nil {
						t.Error(err)
					}
				}
				if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
					t.Error(err)
				}
			}
		}
		if !closeStderr {
			for sc.Scan() {
			}
		}
		done <- cmd.Wait()
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("the benchmark exited 0 after SIGTERM")
		}
	case <-time.After(90 * time.Second):
		if err := cmd.Process.Kill(); err != nil {
			t.Error(err)
		}
		<-done
		t.Fatal("the benchmark did not exit after SIGTERM")
	}
	if strings.Contains(out.String(), `"correct"`) {
		t.Errorf("an interrupted run printed a result: %s", out.String())
	}
	entries, err := os.ReadDir(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("the interrupted run left %d entries in its scratch base", len(entries))
	}
}
