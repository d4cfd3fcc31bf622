// Package jobs is the asynchronous grid-job layer of the serving stack:
// it executes design-space sweeps chunk-by-chunk instead of as one
// synchronous request, persisting every completed chunk as a checkpoint
// keyed by the same content-addressed fingerprints the engine's result
// cache uses. A killed process therefore resumes a job without
// recomputing finished chunks, and — because the chunk partition is a
// pure function of the job spec and per-chunk datasets concatenate
// without re-rendering — a resumed run's final dataset is bit-identical
// to an uninterrupted run's.
//
// The identity chain is the engine's, extended one level: a job's Key is
// the engine content address of the sweep it computes (kind + config/grid
// fingerprint, Workers excluded), and the job id fingerprints (Key, chunk
// size) — the chunk size shapes the checkpoint partition, so two jobs
// over the same sweep at different granularities checkpoint under
// different ids. Chunk files are then addressed by index into the
// deterministic partition par.Ranges derives from (points, chunk), which
// is what lets a fresh process re-address another process's checkpoints.
//
// Execution details — worker counts, which chunks were resumed versus
// computed — never enter the identity chain or the persisted datasets;
// they surface only through Status and internal/obs metrics.
package jobs

import (
	"errors"

	"nwdec/internal/core"
	"nwdec/internal/dataset"
	"nwdec/internal/engine"
	"nwdec/internal/nwerr"
	"nwdec/internal/sweep"
)

// DefaultChunk is the chunk size a zero Spec.Chunk selects. It is a
// fixed constant, not the par.ChunkSize heuristic, because the heuristic
// depends on the machine's core count and the chunk partition is job
// identity — two machines must partition the same spec identically for
// one to resume the other's checkpoints.
const DefaultChunk = 32

// Spec describes one grid job: the sweep the engine would run for
// KindSweep, plus the checkpoint granularity. The JSON form is both the
// wire form (POST /jobs) and the persisted form (Store.PutSpec); worker
// counts are deliberately absent — they are an execution detail of the
// Runner, never part of the job.
type Spec struct {
	// Base is the platform configuration the grid varies over. A custom
	// threshold model (Config.Model) cannot be persisted or resumed, so
	// specs carrying one are rejected at submission.
	Base core.Config `json:"base"`
	// Grid is the parameter grid (zero = default grid).
	Grid sweep.Grid `json:"grid"`
	// Chunk is the number of grid points per checkpoint (<= 0 selects
	// DefaultChunk). It is part of the job identity: the chunk partition
	// is how checkpoints are addressed across processes.
	Chunk int `json:"chunk,omitempty"`
}

// normalized resolves the defaulted fields that participate in identity.
func (s Spec) normalized() Spec {
	if s.Chunk <= 0 {
		s.Chunk = DefaultChunk
	}
	return s
}

// Key returns the engine content address of the sweep the job computes —
// exactly the cache key a synchronous KindSweep request for the same
// config and grid would be served under.
func (s Spec) Key() string {
	return engine.Request{Kind: engine.KindSweep, Config: s.Base, Grid: s.Grid}.Key()
}

// ID derives the job id: "j-" plus a fingerprint of (sweep key, chunk
// size). Submitting the same spec always yields the same id, in any
// process on any machine — the property resume is built on.
func (s Spec) ID() string {
	s = s.normalized()
	return "j-" + dataset.Fingerprint(struct {
		Key   string
		Chunk int
	}{s.Key(), s.Chunk})
}

// validate rejects specs that cannot be persisted and resumed, and grids
// a design cannot be built from.
func (s Spec) validate() error {
	if s.Base.Model != nil {
		return nwerr.Invalidf("jobs: custom threshold models are not persistable; submit with Model nil")
	}
	return s.Grid.Validate()
}

// State is the lifecycle phase of a job.
type State string

// The job states. A job observed only in a store (no live runner owns
// it) is Suspended until every chunk is checkpointed, then Complete.
const (
	// StateRunning marks a job a live runner is executing.
	StateRunning State = "running"
	// StateComplete marks a job whose every chunk is checkpointed.
	StateComplete State = "complete"
	// StateFailed marks a job whose computation failed; Error carries the
	// message.
	StateFailed State = "failed"
	// StateCanceled marks a job abandoned by cancellation. Its completed
	// chunks remain checkpointed, so it is resumable.
	StateCanceled State = "canceled"
	// StateSuspended marks a job found in a store with no live runner:
	// a previous process checkpointed some chunks and exited. Resume
	// picks it up where it stopped.
	StateSuspended State = "suspended"
)

// Terminal reports whether the state is final for the owning runner.
// Canceled and Suspended jobs are terminal but resumable.
func (s State) Terminal() bool { return s != StateRunning }

// Status is the observable progress of a job. Counts are chunks, not
// points, except Points. Computed and Resumed partition Done: every
// finished chunk was either computed in this process or served from a
// checkpoint — a resumed run that recomputed nothing reports Computed 0.
type Status struct {
	// ID is the job id (Spec.ID).
	ID string `json:"id"`
	// State is the lifecycle phase.
	State State `json:"state"`
	// Key is the engine content address of the underlying sweep.
	Key string `json:"key"`
	// Points is the number of valid grid points the job evaluates.
	Points int `json:"points"`
	// Chunks is the total chunk count of the partition.
	Chunks int `json:"chunks"`
	// Done counts checkpointed chunks.
	Done int `json:"done"`
	// Computed counts chunks this process evaluated.
	Computed int `json:"computed"`
	// Resumed counts chunks served from existing checkpoints.
	Resumed int `json:"resumed"`
	// Error is the failure or cancellation message, empty otherwise.
	Error string `json:"error,omitempty"`
}

// ErrAlreadyComplete classifies an operation on a job that has already
// finished (canceling a complete job). It is Invalid-class: the request
// cannot succeed by retrying.
var ErrAlreadyComplete = nwerr.Invalid(errors.New("jobs: job already complete"))

// ErrCorrupt marks a checkpoint that exists but does not parse — a torn
// or hand-damaged chunk file. Stores wrap it (errors.Is-matchable) so
// the Runner can treat a corrupt chunk as missing and recompute it
// instead of failing the whole job; every write is atomic, so the next
// checkpoint of the same index simply replaces the damaged file. The
// Runner also wraps it when a stored spec derives an id other than the
// one it is stored under; that job cannot be resumed or reported.
var ErrCorrupt = errors.New("jobs: corrupt checkpoint")
