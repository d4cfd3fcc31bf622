package obs_test

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"nwdec/internal/dataset"
	"nwdec/internal/obs"
	"nwdec/internal/par"
)

// TestCounterGaugeHistogramConcurrent hammers one registry from many
// goroutines — metric updates, lookups and snapshots interleaved — and
// checks the totals. Run under -race (scripts/ci.sh does) this is the
// race-cleanliness gate of the metric layer.
func TestCounterGaugeHistogramConcurrent(t *testing.T) {
	const (
		goroutines = 8
		perG       = 1000
	)
	reg := obs.New(nil)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// Look the metrics up every iteration so the registry maps
				// are exercised concurrently, not just the atomics.
				reg.Counter("test/hits").Add(1)
				reg.Gauge("test/level").Set(float64(i))
				reg.Histogram("test/latency").Observe(int64(i))
				if i%100 == 0 {
					_ = reg.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("test/hits").Value(); got != goroutines*perG {
		t.Errorf("counter = %d, want %d", got, goroutines*perG)
	}
	h := reg.Histogram("test/latency")
	if h.Count() != goroutines*perG {
		t.Errorf("histogram count = %d, want %d", h.Count(), goroutines*perG)
	}
	if h.Min() != 0 || h.Max() != perG-1 {
		t.Errorf("histogram min/max = %d/%d, want 0/%d", h.Min(), h.Max(), perG-1)
	}
	wantSum := int64(goroutines) * perG * (perG - 1) / 2
	if h.Sum() != wantSum {
		t.Errorf("histogram sum = %d, want %d", h.Sum(), wantSum)
	}
}

// TestSnapshotDeterministicAcrossWorkerCounts runs the same instrumented
// workload at worker counts 1, 4 and 8 and checks the observability
// contract: the snapshot schema is identical, the keys come out sorted,
// the deterministic metrics (total tasks, workload counters) agree
// exactly, and snapshotting twice is byte-identical.
func TestSnapshotDeterministicAcrossWorkerCounts(t *testing.T) {
	const n = 64
	var schema string
	for _, w := range []int{1, 4, 8} {
		reg := obs.New(nil) // no clock: every metric value is deterministic
		ctx := obs.Into(context.Background(), reg)
		_, err := par.Map(ctx, w, make([]struct{}, n), func(ctx context.Context, i int, _ struct{}) (int, error) {
			obs.From(ctx).Counter("test/work").Add(1)
			return i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		snap := reg.Snapshot()

		cols := make([]string, len(snap.Columns))
		for i, c := range snap.Columns {
			cols[i] = c.Name + ":" + c.Kind.String()
		}
		sig := strings.Join(cols, ",")
		if schema == "" {
			schema = sig
		} else if sig != schema {
			t.Errorf("workers=%d: schema %q != %q", w, sig, schema)
		}

		values := snapshotValues(snap)
		if got := values["par/tasks|counter"]; got != n {
			t.Errorf("workers=%d: par/tasks = %g, want %d", w, got, n)
		}
		if got := values["test/work|counter"]; got != n {
			t.Errorf("workers=%d: test/work = %g, want %d", w, got, n)
		}
		// Per-worker task counts must add up to the total even though the
		// distribution over workers is scheduling-dependent.
		var perWorker float64
		for key, v := range values {
			if strings.HasPrefix(key, "par/worker/") && strings.HasSuffix(key, "/tasks|counter") {
				perWorker += v
			}
		}
		if perWorker != n {
			t.Errorf("workers=%d: per-worker tasks sum = %g, want %d", w, perWorker, n)
		}

		// Rows come out grouped (counters, gauges, histograms) with names
		// sorted inside each group.
		prev := map[string]string{}
		for _, row := range snap.Rows {
			name, kind := row[0].(string), row[1].(string)
			group := kind
			if kind != "counter" && kind != "gauge" {
				group = "histogram"
			}
			if name < prev[group] {
				t.Errorf("workers=%d: %s names not sorted: %q after %q", w, group, name, prev[group])
			}
			prev[group] = name
		}

		if a, b := snap.CSV(), reg.Snapshot().CSV(); a != b {
			t.Errorf("workers=%d: consecutive snapshots differ:\n%s\n---\n%s", w, a, b)
		}
	}
}

// snapshotValues flattens a snapshot into metric|kind -> value.
func snapshotValues(ds *dataset.Dataset) map[string]float64 {
	out := make(map[string]float64, len(ds.Rows))
	for _, row := range ds.Rows {
		out[row[0].(string)+"|"+row[1].(string)] = row[2].(float64)
	}
	return out
}

// TestSpanNesting drives nested spans with the deterministic manual clock
// and checks the recorded paths and durations.
func TestSpanNesting(t *testing.T) {
	clock := obs.NewManualClock(time.Millisecond)
	reg := obs.New(clock)
	outer := reg.StartSpan("outer") // reads 0ms
	inner := outer.Child("inner")   // reads 1ms
	inner.End()                     // reads 2ms -> 1ms duration
	outer.End()                     // reads 3ms -> 3ms duration

	if got := reg.Histogram("span/outer/inner").Sum(); got != int64(time.Millisecond) {
		t.Errorf("inner span sum = %d, want %d", got, int64(time.Millisecond))
	}
	if got := reg.Histogram("span/outer").Sum(); got != int64(3*time.Millisecond) {
		t.Errorf("outer span sum = %d, want %d", got, int64(3*time.Millisecond))
	}
	if got := reg.Histogram("span/outer").Count(); got != 1 {
		t.Errorf("outer span count = %d, want 1", got)
	}

	// Without a clock, spans still count but record zero durations, so the
	// snapshot stays deterministic.
	nreg := obs.New(nil)
	sp := nreg.StartSpan("quiet")
	sp.End()
	if h := nreg.Histogram("span/quiet"); h.Count() != 1 || h.Sum() != 0 {
		t.Errorf("clockless span count/sum = %d/%d, want 1/0", h.Count(), h.Sum())
	}
}

// TestDisabledIsFree is the zero-overhead contract: with no registry in
// the context, every obs operation on the resulting nil values is a no-op
// with zero allocations.
func TestDisabledIsFree(t *testing.T) {
	ctx := context.Background()
	if reg := obs.From(ctx); reg != nil {
		t.Fatalf("From(Background) = %v, want nil", reg)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		reg := obs.From(ctx)
		reg.Counter("x").Add(1)
		reg.Gauge("g").Set(1)
		reg.Histogram("h").Observe(1)
		sp := reg.StartSpan("s")
		sp.Child("c").End()
		sp.End()
		if reg.Clock() != nil {
			t.Error("nil registry has a clock")
		}
	})
	if allocs != 0 {
		t.Errorf("disabled path allocates %.1f per op, want 0", allocs)
	}
	// Nil-safe reads report zeros.
	var reg *obs.Registry
	if reg.Counter("x").Value() != 0 || reg.Gauge("g").Value() != 0 || reg.Histogram("h").Count() != 0 {
		t.Error("nil metric reads not zero")
	}
	if got := reg.Snapshot(); len(got.Rows) != 0 || len(got.Columns) != 3 {
		t.Errorf("nil snapshot rows/cols = %d/%d, want 0/3", len(got.Rows), len(got.Columns))
	}
}

// TestHistogramQuantiles sanity-checks the power-of-two quantile
// estimator against an exactly known distribution.
func TestHistogramQuantiles(t *testing.T) {
	reg := obs.New(nil)
	h := reg.Histogram("q")
	for v := int64(1); v <= 100; v++ {
		h.Observe(v)
	}
	if h.Min() != 1 || h.Max() != 100 || h.Count() != 100 || h.Sum() != 5050 {
		t.Fatalf("summary = min %d max %d count %d sum %d", h.Min(), h.Max(), h.Count(), h.Sum())
	}
	p50, p99 := h.Quantile(0.50), h.Quantile(0.99)
	if p50 < 1 || p50 > 100 || p99 < p50 || p99 > 100 {
		t.Errorf("quantiles p50=%d p99=%d out of range", p50, p99)
	}
	// Negative observations clamp to zero instead of corrupting buckets.
	h.Observe(-5)
	if h.Min() != 0 {
		t.Errorf("negative observation min = %d, want 0", h.Min())
	}
}

// TestManualClockMonotonic checks the test clock's stepping contract.
func TestManualClockMonotonic(t *testing.T) {
	c := obs.NewManualClock(2 * time.Millisecond)
	for i := 0; i < 3; i++ {
		if got, want := c.Now(), time.Duration(i)*2*time.Millisecond; got != want {
			t.Errorf("reading %d = %v, want %v", i, got, want)
		}
	}
}

// TestProfileCapture exercises the opt-in pprof/trace helpers end to end:
// all three artifacts are written and non-empty, and Stop is nil-safe.
func TestProfileCapture(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "prof")
	p, err := obs.StartProfile(dir)
	if err != nil {
		t.Fatal(err)
	}
	// A little work so the trace has events.
	sum := 0
	for i := 0; i < 1_000_000; i++ {
		sum += i
	}
	if sum < 0 {
		t.Fatal("impossible")
	}
	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"cpu.pprof", "heap.pprof", "trace.out"} {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if fi.Size() == 0 {
			t.Errorf("%s is empty", name)
		}
	}
	var nilP *obs.Profile
	if err := nilP.Stop(); err != nil {
		t.Errorf("nil profile Stop = %v", err)
	}
}
