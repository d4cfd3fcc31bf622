package engine

import (
	"nwdec/internal/code"
	"nwdec/internal/core"
	"nwdec/internal/dataset"
	"nwdec/internal/experiments"
	"nwdec/internal/nwerr"
	"nwdec/internal/sweep"
)

// Kind names one request type the engine can serve. Kinds are strings so
// cache keys, metric names and HTTP routes all read the same.
type Kind string

// The request kinds, one per expensive entry point of the library.
const (
	// KindDesign resolves one decoder design (core.NewDesign).
	KindDesign Kind = "design"
	// KindOptimize sweeps the design space and returns the best design
	// under an objective (core.Optimize).
	KindOptimize Kind = "optimize"
	// KindMonteCarlo measures the empirical cave yield of a design over
	// repeated fabrications (Design.MonteCarloYieldWorkers).
	KindMonteCarlo Kind = "montecarlo"
	// KindExperiment runs one named experiment of the reproduction
	// (experiments.Runner.Run).
	KindExperiment Kind = "experiment"
	// KindSweep evaluates the batch design-space grid (sweep.RunWorkers).
	KindSweep Kind = "sweep"
	// KindCodes generates a code-word listing with transition statistics
	// (the nwcodes workload).
	KindCodes Kind = "codes"
)

// known reports whether k is one of the declared kinds.
func (k Kind) known() bool {
	switch k {
	case KindDesign, KindOptimize, KindMonteCarlo, KindExperiment,
		KindSweep, KindCodes:
		return true
	}
	return false
}

// Request is one unit of work submitted to the engine. A request is fully
// described by its value: two requests with equal identity fields compute
// identical results (the determinism invariant of the pipeline), which is
// what makes content-addressed caching sound. The JSON form, under the
// field tags, is the cluster peer protocol's wire form (see MarshalWire).
type Request struct {
	// Kind selects the entry point.
	Kind Kind `json:"kind"`
	// Config is the platform configuration (all kinds; KindCodes reads
	// only CodeType, Base and CodeLength from it).
	Config core.Config `json:"config"`
	// Experiment is the registry name for KindExperiment.
	Experiment string `json:"experiment,omitempty"`
	// Grid is the parameter grid for KindSweep (zero = default grid).
	Grid sweep.Grid `json:"grid"`
	// Objective ranks designs for KindOptimize.
	Objective core.Objective `json:"objective"`
	// Types are the code families for KindOptimize (nil = all).
	Types []code.Type `json:"types,omitempty"`
	// Lengths are the code lengths for KindOptimize (nil = 4..12 even).
	Lengths []int `json:"lengths,omitempty"`
	// Count is the number of words to emit for KindCodes (0 = the whole
	// space, capped at 64 — the historical nwcodes default).
	Count int `json:"count,omitempty"`
	// Seed drives the stochastic kinds (KindMonteCarlo, KindExperiment).
	Seed uint64 `json:"seed,omitempty"`
	// Trials is the repetition count for KindMonteCarlo and the
	// Monte-Carlo experiments (KindExperiment; 0 = the runner default).
	Trials int `json:"trials,omitempty"`
	// Lo and Hi select the point slice [Lo, Hi) of Grid.Points for
	// KindSweep (Hi == 0 = the whole grid). A ranged sweep is one job
	// chunk, so its key is the chunk's identity. Engine.Do hands ranged
	// requests straight to the compute layer: like the chunks they are,
	// they are never cached, deduplicated or admitted.
	Lo int `json:"lo,omitempty"`
	Hi int `json:"hi,omitempty"`
	// Workers bounds the worker pool (0 = GOMAXPROCS). It is an
	// execution detail: results are bit-identical at every worker count,
	// so Workers is excluded from the cache key — a request computed at
	// one worker count serves all others. For the same reason it never
	// crosses the wire: the owning node computes with its own bound.
	Workers int `json:"-"`

	// key memoizes Key(). The engine facade fills it once per Do call so
	// the backend layers below share one fingerprint computation.
	key string
}

// Key returns the request's content address: the kind plus a fingerprint
// of every identity field. The configuration contributes through
// Config.Fingerprint, which folds in the threshold model's calibration
// parameters; Workers is deliberately absent (see the field comment).
// The point range enters the fingerprint only when set, so every
// unranged request keeps the address it had before ranges existed.
func (r Request) Key() string {
	if r.key != "" {
		return r.key
	}
	id := struct {
		Config     string
		Experiment string
		Grid       sweep.Grid
		Objective  core.Objective
		Types      []code.Type
		Lengths    []int
		Count      int
		Seed       uint64
		Trials     int
	}{
		Config:     r.Config.Fingerprint(),
		Experiment: r.Experiment,
		Grid:       r.Grid,
		Objective:  r.Objective,
		Types:      r.Types,
		Lengths:    r.Lengths,
		Count:      r.Count,
		Seed:       r.Seed,
		Trials:     r.Trials,
	}
	if !r.ranged() {
		return string(r.Kind) + "/" + dataset.Fingerprint(id)
	}
	return string(r.Kind) + "/" + dataset.Fingerprint(struct {
		ID     any
		Lo, Hi int
	}{id, r.Lo, r.Hi})
}

// ranged reports whether the request selects a point range.
func (r Request) ranged() bool { return r.Lo != 0 || r.Hi != 0 }

// Validate rejects malformed requests with Invalid-class errors — and
// well-formed requests naming nonexistent experiments with NotFound-class
// ones — before any work is admitted. Engine.Do and the cluster routing
// layer call it, so a request any node would reject fails where it arrived.
func (r Request) Validate() error {
	if !r.Kind.known() {
		return nwerr.Invalidf("engine: unknown request kind %q", string(r.Kind))
	}
	if r.Kind == KindExperiment && r.Experiment == "" {
		return nwerr.Invalidf("engine: experiment request needs a name")
	}
	if r.Kind == KindExperiment && !ExperimentKnown(r.Experiment) {
		return nwerr.NotFoundf("engine: unknown experiment %q", r.Experiment)
	}
	if r.Kind == KindMonteCarlo && r.Trials <= 0 {
		return nwerr.Invalidf("engine: montecarlo request needs a positive trial count, got %d", r.Trials)
	}
	if r.Trials < 0 {
		return nwerr.Invalidf("engine: negative trial count %d", r.Trials)
	}
	if r.Trials > experiments.MaxMCTrials {
		return nwerr.Invalidf("engine: trial count %d exceeds the maximum %d", r.Trials, experiments.MaxMCTrials)
	}
	if r.Kind == KindSweep {
		if err := r.Grid.Validate(); err != nil {
			return err
		}
	}
	if r.Count < 0 {
		return nwerr.Invalidf("engine: negative word count %d", r.Count)
	}
	if r.ranged() {
		if r.Kind != KindSweep {
			return nwerr.Invalidf("engine: a point range applies only to sweep requests, not %q", string(r.Kind))
		}
		if r.Lo < 0 || r.Hi <= r.Lo {
			return nwerr.Invalidf("engine: empty or negative sweep range [%d,%d)", r.Lo, r.Hi)
		}
	}
	return nil
}

// Response is the result of one request: a dataset plus its provenance.
// The dataset is the caller's private clone, safe to annotate.
type Response struct {
	// Dataset is the structured result.
	Dataset *dataset.Dataset
	// CacheHit reports whether the result was served without computing:
	// from the cache, or by joining an identical in-flight request. For a
	// peer-served response it reports the owning node's verdict.
	CacheHit bool
	// Peer reports that the response was served by the request key's
	// owning node over the cluster peer protocol instead of by this
	// process (see internal/cluster).
	Peer bool
	// Key is the request's content address, for logging and HTTP headers.
	Key string
}

// clone returns the caller's private view of a response: the dataset is
// deep-copied so no caller can mutate the cached original.
func (r *Response) clone(hit bool) *Response {
	out := *r
	out.CacheHit = hit
	out.Dataset = r.Dataset.Clone()
	return &out
}

// cost estimates the cache weight of a response in dataset cells. The
// unit is coarse — the cap exists to bound memory, not to account bytes
// exactly.
func (r *Response) cost() int64 {
	cols := len(r.Dataset.Columns)
	if cols < 1 {
		cols = 1
	}
	return 1 + int64(len(r.Dataset.Rows))*int64(cols)
}
