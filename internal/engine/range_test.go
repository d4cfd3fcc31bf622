package engine_test

import (
	"testing"

	"nwdec/internal/code"
	"nwdec/internal/core"
	"nwdec/internal/dataset"
	"nwdec/internal/engine"
	"nwdec/internal/nwerr"
	"nwdec/internal/par"
	"nwdec/internal/sweep"
)

// rangeGrid has more than 32 valid points, so every chunk size under
// test splits it into at least two ranges.
var rangeGrid = sweep.Grid{
	Types:   []code.Type{code.TypeGray, code.TypeHot, code.TypeBalancedGray},
	Lengths: []int{4, 6, 8},
	SigmaTs: []float64{0.04, 0.05, 0.06, 0.07},
}

// TestRangedSweepConcatsToWholeGrid: a job chunk is a ranged sweep, so
// the ranged responses over any partition of the grid must concatenate
// to exactly the bytes of the unranged sweep.
func TestRangedSweepConcatsToWholeGrid(t *testing.T) {
	ctx, _ := obsCtx()
	eng := newEngine(t, engine.Options{})
	whole, err := eng.Do(ctx, engine.Request{Kind: engine.KindSweep, Grid: rangeGrid})
	if err != nil {
		t.Fatal(err)
	}
	want, err := whole.Dataset.JSON()
	if err != nil {
		t.Fatal(err)
	}
	n := len(rangeGrid.Points(core.Config{}))
	if n <= 32 {
		t.Fatalf("grid has %d points, want more than 32", n)
	}
	for _, chunk := range []int{1, 3, 32} {
		var parts []*dataset.Dataset
		for _, rg := range par.Ranges(n, chunk) {
			resp, err := eng.Do(ctx, engine.Request{Kind: engine.KindSweep, Grid: rangeGrid, Lo: rg.Lo, Hi: rg.Hi})
			if err != nil {
				t.Fatalf("chunk %d, range %+v: %v", chunk, rg, err)
			}
			parts = append(parts, resp.Dataset)
		}
		all, err := dataset.Concat(parts...)
		if err != nil {
			t.Fatal(err)
		}
		got, err := all.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("chunk %d: concatenated ranges differ from the whole sweep", chunk)
		}
	}
}

// TestRangedSweepInvalid: a range that is negative, empty, past the end
// of the grid, or set on a kind other than sweep is Invalid-class.
func TestRangedSweepInvalid(t *testing.T) {
	ctx, _ := obsCtx()
	eng := newEngine(t, engine.Options{})
	n := len(rangeGrid.Points(core.Config{}))
	for name, req := range map[string]engine.Request{
		"negative-lo":  {Kind: engine.KindSweep, Grid: rangeGrid, Lo: -1, Hi: 2},
		"hi-equals-lo": {Kind: engine.KindSweep, Grid: rangeGrid, Lo: 2, Hi: 2},
		"lo-only":      {Kind: engine.KindSweep, Grid: rangeGrid, Lo: 2},
		"past-end":     {Kind: engine.KindSweep, Grid: rangeGrid, Lo: 0, Hi: n + 1},
		"non-sweep":    {Kind: engine.KindCodes, Count: 2, Lo: 0, Hi: 1},
	} {
		if _, err := eng.Do(ctx, req); !nwerr.IsInvalid(err) {
			t.Errorf("%s: err = %v, want Invalid-class", name, err)
		}
	}
}

// TestRangedSweepSkipsChain: a chunk is computed, never cached,
// deduplicated or admitted — the facade hands it straight to the compute
// layer.
func TestRangedSweepSkipsChain(t *testing.T) {
	ctx, _ := obsCtx()
	eng := newEngine(t, engine.Options{})
	req := engine.Request{Kind: engine.KindSweep, Grid: rangeGrid, Lo: 0, Hi: 3}
	resp, err := eng.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.CacheHit || resp.Key != req.Key() || len(resp.Dataset.Rows) != 3 {
		t.Errorf("response CacheHit=%v Key=%s rows=%d, want a 3-row miss under %s",
			resp.CacheHit, resp.Key, len(resp.Dataset.Rows), req.Key())
	}
	layers := make(map[string]engine.BackendStats)
	for _, st := range eng.BackendStats() {
		layers[st.Name] = st
	}
	for name, want := range map[string]engine.BackendStats{
		"engine":       {Name: "engine", Requests: 1},
		"singleflight": {Name: "singleflight"},
		"cache":        {Name: "cache"},
		"admission":    {Name: "admission"},
		"compute":      {Name: "compute", Requests: 1, Served: 1},
	} {
		if got := layers[name]; got != want {
			t.Errorf("layer %s stats = %+v, want %+v", name, got, want)
		}
	}
	if n := eng.CacheLen(); n != 0 {
		t.Errorf("CacheLen = %d after a ranged request, want 0", n)
	}
}

// TestKeyPins pins content addresses across versions: a fleet routes by
// key, and a job resumes another process's checkpoints, only while these
// stay put. The unranged keys predate point ranges; the ranged ones are
// the first two chunks of a 32-point partition of the default grid.
func TestKeyPins(t *testing.T) {
	for _, tc := range []struct {
		req  engine.Request
		want string
	}{
		{engine.Request{Kind: engine.KindSweep}, "sweep/d0bcaf10581d7649"},
		{engine.Request{Kind: engine.KindExperiment, Experiment: "fig5"}, "experiment/9dda9c977547c2b2"},
		{engine.Request{Kind: engine.KindSweep, Lo: 0, Hi: 32}, "sweep/f9ef691944f3a43b"},
		{engine.Request{Kind: engine.KindSweep, Lo: 32, Hi: 64}, "sweep/e09154aa284946ad"},
	} {
		if got := tc.req.Key(); got != tc.want {
			t.Errorf("%s request key = %s, want %s", tc.req.Kind, got, tc.want)
		}
	}
}
