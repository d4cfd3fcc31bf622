package engine_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"nwdec/internal/core"
	"nwdec/internal/dataset"
	"nwdec/internal/engine"
	"nwdec/internal/experiments"
	"nwdec/internal/nwerr"
	"nwdec/internal/obs"
	"nwdec/internal/sweep"
)

// obsCtx returns a context carrying a fresh metrics registry, so tests can
// count computes, cache hits and evictions through the engine's own
// instrumentation.
func obsCtx() (context.Context, *obs.Registry) {
	reg := obs.New(nil)
	return obs.Into(context.Background(), reg), reg
}

// newEngine constructs an engine from options every test here considers
// valid, failing the test on a construction error.
func newEngine(t *testing.T, opts engine.Options) *engine.Engine {
	t.Helper()
	eng, err := engine.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestOptionsValidation: New must reject caps that would silently
// misbehave — a negative cap is neither "unlimited" nor "default" — with
// an Invalid-class error, and accept the zero value and explicit
// positive caps.
func TestOptionsValidation(t *testing.T) {
	cases := []struct {
		name string
		opts engine.Options
		ok   bool
	}{
		{"zero-defaults", engine.Options{}, true},
		{"explicit", engine.Options{MaxEntries: 4, MaxCost: 100, MaxInFlight: 2}, true},
		{"shed", engine.Options{Shed: true}, true},
		{"negative-entries", engine.Options{MaxEntries: -1}, false},
		{"negative-cost", engine.Options{MaxCost: -5}, false},
		{"negative-inflight", engine.Options{MaxInFlight: -2}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := engine.New(tc.opts)
			if tc.ok {
				if err != nil || eng == nil {
					t.Fatalf("New(%+v) = %v, %v; want an engine", tc.opts, eng, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("New(%+v) accepted invalid options", tc.opts)
			}
			if !errors.Is(err, nwerr.ErrInvalid) {
				t.Errorf("New(%+v) error %v is not ErrInvalid", tc.opts, err)
			}
			if eng != nil {
				t.Errorf("New(%+v) returned an engine alongside the error", tc.opts)
			}
		})
	}
}

// TestBackendStats: the per-layer counters must attribute work to the
// layer that did it — one cold request counts at every layer, its cached
// repeat is served by the cache layer and never reaches admission or
// compute.
func TestBackendStats(t *testing.T) {
	ctx, _ := obsCtx()
	eng := newEngine(t, engine.Options{})
	req := engine.Request{Kind: engine.KindCodes, Count: 2}
	for i := 0; i < 2; i++ {
		if _, err := eng.Do(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	layers := make(map[string]engine.BackendStats)
	for _, st := range eng.BackendStats() {
		layers[st.Name] = st
	}
	for name, want := range map[string]engine.BackendStats{
		"engine":       {Name: "engine", Requests: 2},
		"singleflight": {Name: "singleflight", Requests: 2},
		"cache":        {Name: "cache", Requests: 2, Served: 1},
		"admission":    {Name: "admission", Requests: 1},
		"compute":      {Name: "compute", Requests: 1, Served: 1},
	} {
		if got := layers[name]; got != want {
			t.Errorf("layer %s stats = %+v, want %+v", name, got, want)
		}
	}
}

// TestConcurrentDuplicatesComputeOnce is the singleflight proof: N
// goroutines issue the identical request against one engine, and the
// engine's compute counter must record exactly one execution — every
// other caller either joined the in-flight computation or hit the cache.
// Run under -race this also exercises the flight/cache synchronization.
func TestConcurrentDuplicatesComputeOnce(t *testing.T) {
	ctx, reg := obsCtx()
	eng := newEngine(t, engine.Options{})
	req := engine.Request{Kind: engine.KindMonteCarlo, Seed: 11, Trials: 3}

	const n = 16
	var (
		wg    sync.WaitGroup
		start = make(chan struct{})
		resps [n]*engine.Response
		errs  [n]error
	)
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			<-start
			resps[i], errs[i] = eng.Do(ctx, req)
		}(i)
	}
	close(start)
	wg.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
	}
	if got := reg.Counter("engine/computes").Value(); got != 1 {
		t.Errorf("%d concurrent identical requests ran %d computes, want exactly 1", n, got)
	}
	hits := 0
	for i := 0; i < n; i++ {
		if !reflect.DeepEqual(resps[i].Dataset.Rows, resps[0].Dataset.Rows) {
			t.Errorf("request %d: rows %v differ from %v", i, resps[i].Dataset.Rows, resps[0].Dataset.Rows)
		}
		if resps[i].CacheHit {
			hits++
		}
	}
	if hits != n-1 {
		t.Errorf("%d of %d requests report CacheHit, want %d (all but the leader)", hits, n, n-1)
	}
	if got := reg.Counter("engine/cache/hits").Value() + reg.Counter("engine/flight/joined").Value(); got != n-1 {
		t.Errorf("hits+joined = %d, want %d", got, n-1)
	}
}

// TestDistinctSeedsDistinctEntries: the seed is an identity field, so two
// Monte-Carlo requests differing only in seed must occupy two cache
// entries — sharing one would serve seed A's empirical yield for seed B.
func TestDistinctSeedsDistinctEntries(t *testing.T) {
	ctx, reg := obsCtx()
	eng := newEngine(t, engine.Options{})
	a, err := eng.Do(ctx, engine.Request{Kind: engine.KindMonteCarlo, Seed: 1, Trials: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.Do(ctx, engine.Request{Kind: engine.KindMonteCarlo, Seed: 2, Trials: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.CacheHit || b.CacheHit {
		t.Error("first requests for distinct seeds must both compute")
	}
	if a.Key == b.Key {
		t.Errorf("distinct seeds share cache key %s", a.Key)
	}
	if got := eng.CacheLen(); got != 2 {
		t.Errorf("cache holds %d entries after two distinct requests, want 2", got)
	}
	if got := reg.Counter("engine/computes").Value(); got != 2 {
		t.Errorf("computes = %d, want 2", got)
	}
	again, err := eng.Do(ctx, engine.Request{Kind: engine.KindMonteCarlo, Seed: 1, Trials: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit || !reflect.DeepEqual(again.Dataset.Rows, a.Dataset.Rows) {
		t.Errorf("repeat of seed 1: hit=%v rows=%v, want hit with rows %v", again.CacheHit, again.Dataset.Rows, a.Dataset.Rows)
	}
}

// TestEvictionRespectsEntryCap: the LRU must hold the entry cap and evict
// the least recently used key.
func TestEvictionRespectsEntryCap(t *testing.T) {
	ctx, reg := obsCtx()
	eng := newEngine(t, engine.Options{MaxEntries: 2})
	for count := 1; count <= 3; count++ {
		if _, err := eng.Do(ctx, engine.Request{Kind: engine.KindCodes, Count: count}); err != nil {
			t.Fatal(err)
		}
	}
	if got := eng.CacheLen(); got != 2 {
		t.Errorf("cache holds %d entries with cap 2, want 2", got)
	}
	if got := reg.Counter("engine/cache/evictions").Value(); got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
	// Count=1 was the least recently used entry; its re-request computes.
	resp, err := eng.Do(ctx, engine.Request{Kind: engine.KindCodes, Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	if resp.CacheHit {
		t.Error("evicted entry served as a cache hit")
	}
	// Count=3 stayed resident.
	resp, err = eng.Do(ctx, engine.Request{Kind: engine.KindCodes, Count: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.CacheHit {
		t.Error("resident entry recomputed")
	}
}

// TestEvictionRespectsCostCap: a response heavier than the whole cost cap
// must not be admitted, and the total cached cost stays under the cap.
func TestEvictionRespectsCostCap(t *testing.T) {
	ctx, _ := obsCtx()
	// A one-word codes dataset costs 1 + 1 row × 3 columns = 4 units.
	eng := newEngine(t, engine.Options{MaxCost: 3})
	resp, err := eng.Do(ctx, engine.Request{Kind: engine.KindCodes, Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	if resp.CacheHit {
		t.Error("cold request reports CacheHit")
	}
	if got := eng.CacheLen(); got != 0 {
		t.Errorf("over-cost response was cached (%d entries)", got)
	}
	// With room for one such response but not two, the second insert
	// evicts the first.
	eng = newEngine(t, engine.Options{MaxCost: 5})
	if _, err := eng.Do(ctx, engine.Request{Kind: engine.KindCodes, Count: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Do(ctx, engine.Request{Kind: engine.KindCodes, Count: 2}); err != nil {
		t.Fatal(err)
	}
	if got := eng.CacheLen(); got != 1 {
		t.Errorf("cache holds %d entries under the cost cap, want 1", got)
	}
}

// TestWorkersExcludedFromKey: the worker count is an execution detail —
// the determinism guarantee makes results bit-identical across worker
// counts — so a result computed at one count must serve every other.
func TestWorkersExcludedFromKey(t *testing.T) {
	ctx, _ := obsCtx()
	eng := newEngine(t, engine.Options{})
	one, err := eng.Do(ctx, engine.Request{Kind: engine.KindExperiment, Experiment: "fig5", Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	four, err := eng.Do(ctx, engine.Request{Kind: engine.KindExperiment, Experiment: "fig5", Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if one.CacheHit {
		t.Error("first request reports CacheHit")
	}
	if !four.CacheHit {
		t.Error("same request at a different worker count recomputed; Workers must not key the cache")
	}
	var a, b bytes.Buffer
	if err := one.Dataset.Render(&a, dataset.FormatJSON); err != nil {
		t.Fatal(err)
	}
	if err := four.Dataset.Render(&b, dataset.FormatJSON); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("cached and computed responses serialize differently")
	}
}

// TestCachedDatasetIsPrivate: each caller gets an independent clone, so
// annotating one response never contaminates the cached original.
func TestCachedDatasetIsPrivate(t *testing.T) {
	ctx, _ := obsCtx()
	eng := newEngine(t, engine.Options{})
	req := engine.Request{Kind: engine.KindCodes, Count: 4}
	first, err := eng.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	notes := len(first.Dataset.Notes)
	first.Dataset.Note("caller-local annotation")
	second, err := eng.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Fatal("second identical request missed the cache")
	}
	if len(second.Dataset.Notes) != notes {
		t.Errorf("caller mutation leaked into the cache: %d notes, want %d", len(second.Dataset.Notes), notes)
	}
}

// TestInvalidRequests: malformed requests must classify as Invalid and be
// rejected before any computation is admitted.
func TestInvalidRequests(t *testing.T) {
	ctx, reg := obsCtx()
	eng := newEngine(t, engine.Options{})
	for _, req := range []engine.Request{
		{Kind: "nope"},
		{Kind: engine.KindExperiment},
		{Kind: engine.KindMonteCarlo, Trials: 0},
		{Kind: engine.KindExperiment, Experiment: "fig5", Trials: -5},
		{Kind: engine.KindCodes, Count: -1},
		{Kind: engine.KindSweep, Grid: sweep.Grid{MarginFactors: []float64{0}}},
	} {
		_, err := eng.Do(ctx, req)
		if err == nil {
			t.Errorf("request %+v accepted", req)
			continue
		}
		if !errors.Is(err, nwerr.ErrInvalid) {
			t.Errorf("request %+v: error %v is not ErrInvalid", req, err)
		}
	}
	if got := reg.Counter("engine/computes").Value(); got != 0 {
		t.Errorf("invalid requests ran %d computes, want 0", got)
	}
}

// TestTrialCountsThatWrapRefused: the experiments scale a request's trial
// count (noise ×50 per half, readout ×15 per study, montecarlo over 3
// design points), so a count past experiments.MaxMCTrials would wrap into
// some other count, or a negative one, before any trial ran. The engine
// refuses such counts as invalid before computing, for every kind that
// reads them; MaxMCTrials itself passes validation.
func TestTrialCountsThatWrapRefused(t *testing.T) {
	ctx, reg := obsCtx()
	eng := newEngine(t, engine.Options{})
	for _, trials := range []int{1 << 62, experiments.MaxMCTrials + 1, math.MaxInt} {
		for _, req := range []engine.Request{
			{Kind: engine.KindExperiment, Experiment: "noise", Trials: trials},
			{Kind: engine.KindExperiment, Experiment: "readout", Trials: trials},
			{Kind: engine.KindExperiment, Experiment: "montecarlo", Trials: trials},
			{Kind: engine.KindMonteCarlo, Trials: trials},
		} {
			_, err := eng.Handle(ctx, req)
			if !errors.Is(err, nwerr.ErrInvalid) {
				t.Errorf("%s %q at %d trials: error %v, want ErrInvalid", req.Kind, req.Experiment, trials, err)
			}
		}
	}
	if got := reg.Counter("engine/computes").Value(); got != 0 {
		t.Errorf("refused requests ran %d computes, want 0", got)
	}
	edge := engine.Request{Kind: engine.KindExperiment, Experiment: "noise", Trials: experiments.MaxMCTrials}
	if err := edge.Validate(); err != nil {
		t.Errorf("MaxMCTrials refused: %v", err)
	}
}

// TestCanceledContext: a dead context surfaces as a Canceled-class error
// whose message still names the cause.
func TestCanceledContext(t *testing.T) {
	ctx, reg := obsCtx()
	ctx, cancel := context.WithCancel(ctx)
	cancel()
	eng := newEngine(t, engine.Options{})
	_, err := eng.Do(ctx, engine.Request{Kind: engine.KindDesign})
	if !errors.Is(err, nwerr.ErrCanceled) {
		t.Errorf("error %v is not ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v lost its context.Canceled cause", err)
	}
	if got := reg.Counter("engine/computes").Value(); got != 0 {
		t.Errorf("canceled request ran %d computes, want 0", got)
	}
}

// TestComputeErrorsNotCached: a failing request must not poison the
// cache — the next identical request retries the computation.
func TestComputeErrorsNotCached(t *testing.T) {
	ctx, reg := obsCtx()
	eng := newEngine(t, engine.Options{})
	// An odd length is structurally invalid for a reflected code family,
	// so NewDesign fails; length 5 fits no family, so the sweep grid is
	// empty. Both are requests that cannot be built: Invalid, not Internal.
	for _, req := range []engine.Request{
		{Kind: engine.KindDesign, Config: core.Config{CodeLength: 7}},
		{Kind: engine.KindSweep, Grid: sweep.Grid{Lengths: []int{5}}},
	} {
		before := reg.Counter("engine/computes").Value()
		for i := 0; i < 2; i++ {
			_, err := eng.Do(ctx, req)
			if err == nil {
				t.Fatalf("%s attempt %d: invalid request accepted", req.Kind, i)
			}
			if !errors.Is(err, nwerr.ErrInvalid) {
				t.Errorf("%s attempt %d: err = %v (class %s), want invalid", req.Kind, i, err, nwerr.ClassOf(err))
			}
		}
		if got := reg.Counter("engine/computes").Value() - before; got != 2 {
			t.Errorf("%s: computes = %d, want 2 (errors must not be cached)", req.Kind, got)
		}
	}
	if got := eng.CacheLen(); got != 0 {
		t.Errorf("failed computation left %d cache entries", got)
	}
}

// TestOptimizeHonorsWorkers: an optimize request's sweep runs on the
// request's worker bound, so Workers = 1 starts no pool even where
// GOMAXPROCS would allow one.
func TestOptimizeHonorsWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	ctx, reg := obsCtx()
	eng := newEngine(t, engine.Options{})
	if _, err := eng.Do(ctx, engine.Request{Kind: engine.KindOptimize, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("par/pools").Value(); got != 0 {
		t.Errorf("par/pools = %d at Workers = 1, want 0", got)
	}
}

// TestEngineMatchesRunner: the engine is a serving layer, not a fork of
// the pipeline — its experiment responses must serialize byte-identically
// to a direct experiments.Runner run.
func TestEngineMatchesRunner(t *testing.T) {
	ctx, _ := obsCtx()
	eng := newEngine(t, engine.Options{})
	resp, err := eng.Do(ctx, engine.Request{Kind: engine.KindExperiment, Experiment: "fig7"})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := (&experiments.Runner{}).Run(context.Background(), "fig7")
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := resp.Dataset.Render(&a, dataset.FormatJSON); err != nil {
		t.Fatal(err)
	}
	if err := direct.Render(&b, dataset.FormatJSON); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("engine and runner outputs differ:\nengine: %s\nrunner: %s", a.String(), b.String())
	}
}
