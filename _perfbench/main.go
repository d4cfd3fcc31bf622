// Command perfbench is the repository benchmark. It runs one of three
// seeded workloads entirely inside its own process, through the public
// APIs of the layers, and prints every metric with its unit and sample
// count; the last line of standard output is the JSON result:
//
//	perfbench --workload serve-zipf|grid-job|paper --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// no tracing installed. With --trace 1 the run measures the same workload
// untraced for half the time and traced for the other half: decorators at
// the layers' public seams record spans, the obs registry is installed,
// and the result carries the per-layer metrics, each layer's self time and
// the tracing overhead. README.md defines every metric and what it should
// move.
//
// The directory name starts with an underscore so that the repository's
// "./..." expansions (the go tool and nwlint) skip this separate module.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"nwdec/internal/code"
	"nwdec/internal/obs"
)

// hardDeadline bounds a whole run; the watchdog exits the process shortly
// after it even if some call ignores cancellation.
const hardDeadline = 150 * time.Second

// config is one run's parameters.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	// root is the checkout root, where the golden datasets are read.
	root string
	// base holds the run's scratch directory.
	base string
	// work is the scratch directory for job stores; it is removed when
	// the run ends.
	work string
	// spanFile receives the traced run's spans ("" = not written).
	spanFile string
	stderr   io.Writer
}

// workload is one benchmark workload. setup builds a measurable instance;
// with a tracer and registry it installs the tracing decorators. tuples
// lists the code tuples its code.search_ms covers.
type workload interface {
	setup(ctx context.Context, e *env, tr *tracer, reg *obs.Registry) (instance, error)
	tuples() []codeTuple
}

// instance is a set-up workload, ready to measure.
type instance interface {
	// measure runs the workload for d and records its end-to-end metrics.
	measure(ctx context.Context, d time.Duration, m *metrics) error
	// layers derives the per-layer metrics of a traced instance.
	layers(m *metrics)
	// check runs the end-of-run correctness checks.
	check(ctx context.Context) error
	close()
}

var workloads = map[string]workload{
	"serve-zipf": serveWorkload{},
	"grid-job":   gridWorkload{},
	"paper":      paperWorkload{},
}

// env is the state shared by a run's set-ups and measurements.
type env struct {
	cfg       config
	attempted atomic.Int64
	failed    atomic.Int64
	logged    atomic.Int64
	logMu     sync.Mutex
	// cold holds the experiments' times from the first (cold) set-up.
	cold map[string]float64
	// expect holds the hash of each output a run must reproduce.
	expect map[string][32]byte
}

// fail counts one failed operation or check; the first few are logged.
// Senders fail concurrently, so the log writes are serialized.
func (e *env) fail(format string, args ...any) {
	e.failed.Add(1)
	if e.logged.Add(1) <= 5 {
		e.logMu.Lock()
		fmt.Fprintf(e.cfg.stderr, "perfbench: FAIL: "+format+"\n", args...)
		e.logMu.Unlock()
	}
}

// result is what a run reports.
type result struct {
	m         metrics
	attempted int64
	failed    int64
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: serve-zipf, grid-job or paper")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 10, "measured seconds")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	flag.Parse()
	cfg := config{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		root:     ".",
		base:     ".bench_build",
		spanFile: filepath.Join(".bench_build", "spans-"+*name+".jsonl"),
		stderr:   os.Stderr,
	}
	os.Exit(mainRun(cfg, os.Stdout))
}

// mainRun runs the benchmark and prints its result, returning the exit
// code. Every resource is released before it returns, on every path.
func mainRun(cfg config, stdout io.Writer) int {
	if _, ok := workloads[cfg.workload]; !ok || cfg.seconds <= 0 {
		fmt.Fprintf(cfg.stderr, "perfbench: need --workload serve-zipf|grid-job|paper and --seconds > 0\n")
		return 2
	}
	// A write to a closed stdout or stderr would otherwise kill the process
	// with SIGPIPE before the deferred clean-up runs.
	signal.Ignore(syscall.SIGPIPE)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, hardDeadline)
	defer cancel()
	if err := os.MkdirAll(cfg.base, 0o755); err != nil {
		fmt.Fprintf(cfg.stderr, "perfbench: %v\n", err)
		return 1
	}
	work, err := os.MkdirTemp(cfg.base, "run-")
	if err != nil {
		fmt.Fprintf(cfg.stderr, "perfbench: %v\n", err)
		return 1
	}
	defer func() {
		if err := os.RemoveAll(work); err != nil {
			fmt.Fprintf(cfg.stderr, "perfbench: removing scratch: %v\n", err)
		}
	}()
	cfg.work = work
	watchdog := time.AfterFunc(hardDeadline+10*time.Second, func() {
		_ = os.RemoveAll(work) // best effort: the process exits next either way
		fmt.Fprintln(cfg.stderr, "perfbench: hard deadline passed, exiting")
		os.Exit(3)
	})
	defer watchdog.Stop()

	res, err := run(ctx, cfg)
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		fmt.Fprintf(cfg.stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if err := report(stdout, cfg, res); err != nil {
		fmt.Fprintf(cfg.stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// run sets the workload up once, as a fresh process does, measures it and,
// in a traced run, measures a traced instance too.
func run(ctx context.Context, cfg config) (*result, error) {
	w := workloads[cfg.workload]
	e := &env{cfg: cfg}
	res := &result{}
	m := &res.m
	var inst instance
	defer func() {
		if inst != nil {
			inst.close()
		}
	}()
	// setup_s is this process's first set-up: the code generator cache is
	// process-wide and cannot be emptied, so only this one pays the cold
	// searches a fresh process pays. The medians across runs absorb its
	// noise.
	t0 := time.Now()
	inst, err := w.setup(ctx, e, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	setup := time.Since(t0)
	m.timing("setup_s", "s", setup.Seconds(), samples{ms(setup)})
	fmt.Fprintf(cfg.stderr, "perfbench: %s: set-up %.3fs, measuring\n", cfg.workload, setup.Seconds())

	if !cfg.trace {
		if err := inst.measure(ctx, cfg.seconds, m); err != nil {
			return nil, err
		}
		if err := inst.check(ctx); err != nil {
			return nil, err
		}
	} else {
		var plain, traced metrics
		if err := inst.measure(ctx, cfg.seconds/2, &plain); err != nil {
			return nil, err
		}
		if err := inst.check(ctx); err != nil {
			return nil, err
		}
		inst.close()
		inst = nil
		search, err := searchCodes(w.tuples())
		if err != nil {
			return nil, err
		}
		m.set("code.search_ms", "ms", ms(search))
		tr := newTracer()
		reg := obs.New(monoClock{base: time.Now()})
		if inst, err = w.setup(ctx, e, tr, reg); err != nil {
			return nil, fmt.Errorf("traced set-up: %w", err)
		}
		tr.mu.Lock()
		tr.spans = tr.spans[:0] // keep only the measured phase
		tr.mu.Unlock()
		if err := inst.measure(ctx, cfg.seconds/2, &traced); err != nil {
			return nil, err
		}
		if err := inst.check(ctx); err != nil {
			return nil, err
		}
		inst.layers(m)
		layerShares(tr.snapshot(), m)
		a, _ := plain.get("p50_ms")
		b, _ := traced.get("p50_ms")
		m.set("trace.overhead_ms", "ms", b.Value-a.Value)
		if cfg.spanFile != "" {
			if err := tr.write(cfg.spanFile); err != nil {
				return nil, fmt.Errorf("writing spans: %w", err)
			}
		}
		for _, x := range plain.list {
			fmt.Fprintf(cfg.stderr, "perfbench: untraced %s = %.6g %s\n", x.Name, x.Value, x.Unit)
		}
		for _, x := range traced.list {
			fmt.Fprintf(cfg.stderr, "perfbench: traced   %s = %.6g %s\n", x.Name, x.Value, x.Unit)
		}
		for _, x := range perLayer {
			if _, ok := m.get(x.Name); !ok {
				m.set(x.Name, x.Unit, 0) // a layer this workload does not exercise
			}
		}
	}
	m.set("peak_rss_mb", "MiB", peakRSSMiB())
	res.attempted = e.attempted.Load()
	res.failed = e.failed.Load()
	m.set("failed_ratio", "ratio", ratio(float64(res.failed), float64(res.attempted)))
	return res, nil
}

// codeTuple is one code family, base and length used at a cave
// population of n wires.
type codeTuple struct {
	tp     code.Type
	base   int
	length int
	n      int
}

// searchCodes times the code generator search for every tuple on private
// generators (code.New, not the process-wide code.Cached), so it pays the
// search a cold process pays whatever the cache holds.
func searchCodes(tuples []codeTuple) (time.Duration, error) {
	t0 := time.Now()
	gens := map[codeTuple]code.Generator{}
	for _, t := range tuples {
		k := codeTuple{t.tp, t.base, t.length, 0}
		g, ok := gens[k]
		if !ok {
			var err error
			if g, err = code.New(t.tp, t.base, t.length); err != nil {
				return 0, fmt.Errorf("code search %v: %w", t, err)
			}
			gens[k] = g
		}
		if _, err := code.CyclicSequence(g, t.n); err != nil {
			return 0, fmt.Errorf("code search %v: %w", t, err)
		}
	}
	return time.Since(t0), nil
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// report prints every metric, one per line with its unit, sample count
// and tail, then the JSON result line carrying the end-to-end metrics
// (or, for a traced run, the per-layer metrics).
func report(w io.Writer, cfg config, res *result) error {
	sorted := append([]metric(nil), res.m.list...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	for _, x := range sorted {
		line := fmt.Sprintf("metric %-34s %-14.6g %-6s", x.Name, x.Value, x.Unit)
		if x.N > 0 {
			line += fmt.Sprintf(" n=%d %s", x.N, x.Tail)
		}
		if _, err := fmt.Fprintln(w, strings.TrimRight(line, " ")); err != nil {
			return err
		}
	}
	names := endToEnd
	if cfg.trace {
		names = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct:   res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]value, len(names)),
	}
	for _, want := range names {
		x, ok := res.m.get(want.Name)
		if !ok || x.Unit != want.Unit {
			return fmt.Errorf("metric %s [%s] was not measured", want.Name, want.Unit)
		}
		v := x.Value
		if math.IsInf(v, 0) || math.IsNaN(v) {
			v = math.MaxFloat64 // JSON has no infinity; a failed timing reads as the largest number
		}
		out.Metrics[want.Name] = value{Value: v, Unit: x.Unit}
	}
	if out.Attempted < 1 {
		return errors.New("no operation was attempted")
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}
