// Command benchcmp is the benchmark-regression gate: it compares a fresh
// BENCH_parallel.json (see scripts/bench.sh) against the committed
// baseline and flags benchmarks whose ns/op or allocs/op moved by more
// than the threshold. By default regressions only warn — benchmark noise
// on shared CI hosts is real — but with -strict (or CI_BENCH_STRICT=1 in
// the environment) a regression fails the build. Benchmarks present in
// only one of the two files are reported but never fail the gate.
//
// Two files measured at different GOMAXPROCS settings (the metadata
// object's gomaxprocs) are not compared at all: the tool prints both
// values and exits 2. A different CPU model is printed but compared
// anyway, because hosted CI runners change CPU between runs.
//
// Usage:
//
//	go run scripts/benchcmp.go -baseline BENCH_parallel.json -current bench-new.json [-threshold 0.20] [-strict]
//
// Exit codes: 0 ok (or warn-only regressions), 1 regression under -strict,
// 2 usage, unreadable input or differing gomaxprocs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// benchEntry is one row of the bench.sh JSON array. The metadata object
// sets Meta, GOMAXPROCS and CPU, and is skipped during comparison.
type benchEntry struct {
	Meta        bool    `json:"meta"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	CPU         string  `json:"cpu"`
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// comparison is the verdict for one benchmark present in both files. Wall
// clock and allocation count are gated independently: an allocation
// regression is a real regression even when it hides inside the ns/op
// noise band (small allocs are cheap until the GC bill arrives).
type comparison struct {
	Name                string
	Base, Cur           float64
	Delta               float64 // (cur-base)/base ns/op
	Regression          bool
	AllocBase, AllocCur float64
	AllocDelta          float64 // (cur-base)/base allocs/op
	AllocRegression     bool
}

func main() {
	report, code := run(os.Args[1:])
	fmt.Print(report)
	os.Exit(code)
}

// run is the testable entry point: it returns the full report text and
// the process exit code.
func run(args []string) (string, int) {
	var sb strings.Builder
	fs := flag.NewFlagSet("benchcmp", flag.ContinueOnError)
	fs.SetOutput(&sb)
	var (
		baseline  = fs.String("baseline", "BENCH_parallel.json", "committed baseline JSON")
		current   = fs.String("current", "", "freshly measured JSON to compare (required)")
		threshold = fs.Float64("threshold", 0.20, "relative ns/op change that counts as a regression")
		strict    = fs.Bool("strict", os.Getenv("CI_BENCH_STRICT") == "1", "exit non-zero on regression (default: warn only; CI_BENCH_STRICT=1 sets this)")
	)
	if err := fs.Parse(args); err != nil {
		return sb.String(), 2
	}
	if *current == "" || *threshold <= 0 {
		sb.WriteString("benchcmp: -current is required and -threshold must be positive\n")
		fs.Usage()
		return sb.String(), 2
	}
	base, baseMeta, err := loadBench(*baseline)
	if err != nil {
		fmt.Fprintf(&sb, "benchcmp: %v\n", err)
		return sb.String(), 2
	}
	cur, curMeta, err := loadBench(*current)
	if err != nil {
		fmt.Fprintf(&sb, "benchcmp: %v\n", err)
		return sb.String(), 2
	}
	if baseMeta.GOMAXPROCS != curMeta.GOMAXPROCS {
		fmt.Fprintf(&sb, "benchcmp: refusing to compare: baseline gomaxprocs %d, current gomaxprocs %d\n",
			baseMeta.GOMAXPROCS, curMeta.GOMAXPROCS)
		return sb.String(), 2
	}
	if baseMeta.CPU != curMeta.CPU {
		fmt.Fprintf(&sb, "benchcmp: note: baseline cpu %q, current cpu %q\n", baseMeta.CPU, curMeta.CPU)
	}

	comps, onlyBase, onlyCur := compare(base, cur, *threshold)
	regressions := 0
	fmt.Fprintf(&sb, "%-45s %14s %14s %8s %12s %12s %8s\n",
		"benchmark", "base ns/op", "cur ns/op", "delta", "base allocs", "cur allocs", "delta")
	for _, c := range comps {
		mark := ""
		if c.Regression {
			mark = "  << REGRESSION"
			regressions++
		}
		if c.AllocRegression {
			mark += "  << ALLOC-REGRESSION"
			regressions++
		}
		fmt.Fprintf(&sb, "%-45s %14.0f %14.0f %+7.1f%% %12.0f %12.0f %+7.1f%%%s\n",
			c.Name, c.Base, c.Cur, 100*c.Delta, c.AllocBase, c.AllocCur, 100*c.AllocDelta, mark)
	}
	for _, name := range onlyBase {
		fmt.Fprintf(&sb, "%-45s only in baseline (benchmark removed?)\n", name)
	}
	for _, name := range onlyCur {
		fmt.Fprintf(&sb, "%-45s only in current (new benchmark; commit a fresh baseline)\n", name)
	}

	switch {
	case regressions == 0:
		fmt.Fprintf(&sb, "benchcmp: %d benchmarks within %.0f%% of baseline\n", len(comps), 100**threshold)
		return sb.String(), 0
	case *strict:
		fmt.Fprintf(&sb, "benchcmp: %d regression(s) beyond %.0f%% (strict mode)\n", regressions, 100**threshold)
		return sb.String(), 1
	default:
		fmt.Fprintf(&sb, "benchcmp: WARNING: %d regression(s) beyond %.0f%% (not failing: strict mode off)\n", regressions, 100**threshold)
		return sb.String(), 0
	}
}

// loadBench reads one bench.sh JSON file into its benchmark entries by
// name and its metadata object (zero when the file has none).
func loadBench(path string) (map[string]benchEntry, benchEntry, error) {
	var meta benchEntry
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, meta, fmt.Errorf("reading %s: %w", path, err)
	}
	var entries []benchEntry
	if err := json.Unmarshal(data, &entries); err != nil {
		return nil, meta, fmt.Errorf("parsing %s: %w", path, err)
	}
	out := make(map[string]benchEntry, len(entries))
	for _, e := range entries {
		switch {
		case e.Meta:
			meta = e
		case e.Name != "":
			out[e.Name] = e
		}
	}
	if len(out) == 0 {
		return nil, meta, fmt.Errorf("%s holds no benchmark entries", path)
	}
	return out, meta, nil
}

// compare pairs the two runs by benchmark name. A regression is a ns/op or
// allocs/op increase beyond the threshold; improvements beyond the
// threshold show in the delta columns but never fail the gate. Benchmarks
// present in only one file warn in the report and never fail it — adding a
// benchmark must not require regenerating the baseline atomically, and a
// removed one is a review question, not a perf gate's.
func compare(base, cur map[string]benchEntry, threshold float64) (comps []comparison, onlyBase, onlyCur []string) {
	for name, b := range base {
		c, ok := cur[name]
		if !ok {
			onlyBase = append(onlyBase, name)
			continue
		}
		delta := 0.0
		if b.NsPerOp > 0 {
			delta = (c.NsPerOp - b.NsPerOp) / b.NsPerOp
		}
		allocDelta := 0.0
		if b.AllocsPerOp > 0 {
			allocDelta = (c.AllocsPerOp - b.AllocsPerOp) / b.AllocsPerOp
		}
		comps = append(comps, comparison{
			Name:            name,
			Base:            b.NsPerOp,
			Cur:             c.NsPerOp,
			Delta:           delta,
			Regression:      delta > threshold,
			AllocBase:       b.AllocsPerOp,
			AllocCur:        c.AllocsPerOp,
			AllocDelta:      allocDelta,
			AllocRegression: allocDelta > threshold,
		})
	}
	for name := range cur {
		if _, ok := base[name]; !ok {
			onlyCur = append(onlyCur, name)
		}
	}
	sort.Slice(comps, func(i, j int) bool { return comps[i].Name < comps[j].Name })
	sort.Strings(onlyBase)
	sort.Strings(onlyCur)
	return comps, onlyBase, onlyCur
}
