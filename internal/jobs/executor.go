package jobs

import (
	"context"
	"sync/atomic"

	"nwdec/internal/dataset"
	"nwdec/internal/engine"
	"nwdec/internal/obs"
	"nwdec/internal/sweep"
)

// Executor evaluates one chunk of a job: the Runner owns checkpointing,
// lifecycle and status — an Executor owns nothing but the computation of
// a chunk's dataset (LocalExecutor in this process, EngineExecutor
// through an engine backend and so across a fleet), never touching the
// store. That split is what keeps resume byte-identity trivial: whichever
// executor produced a chunk, the submitting Runner persists it into the
// same partition slot, and the chunk dataset itself is a pure function of
// (spec, index).
type Executor interface {
	// Execute evaluates the chunk of the spec and returns its dataset.
	// Implementations must be safe for concurrent use and must derive
	// the result only from (spec, chunk) — never from node identity.
	Execute(ctx context.Context, spec Spec, chunk Chunk) (*dataset.Dataset, error)
	// Stats reports the layer's lifetime counters.
	Stats() ExecutorStats
}

// Chunk is one unit of executor work: the index into the job's
// deterministic partition plus the grid points of that slice. Carrying
// the points keeps LocalExecutor free of re-derivation; EngineExecutor
// sends the slice's bounds instead, and the computing engine re-derives
// the points from the grid.
type Chunk struct {
	// Index is the chunk's position in the par.Ranges partition.
	Index int
	// Points are the grid points of this chunk, in grid order.
	Points []sweep.Point
}

// ExecutorStats are the lifetime counters of one executor, mirroring
// engine.BackendStats. Chunks counts Execute calls, Served the calls
// that returned a dataset, Errors the calls that failed.
type ExecutorStats struct {
	Name   string
	Chunks int64
	Served int64
	Errors int64
}

// execStats is the embedded atomic counter block shared by the
// executors.
type execStats struct {
	chunks atomic.Int64
	served atomic.Int64
	errors atomic.Int64
}

func (s *execStats) snapshot(name string) ExecutorStats {
	return ExecutorStats{
		Name:   name,
		Chunks: s.chunks.Load(),
		Served: s.served.Load(),
		Errors: s.errors.Load(),
	}
}

// LocalExecutor computes chunks in this process — the Runner's historic
// behavior extracted behind the Executor seam. Each chunk is internally
// parallel on the par pool; results are bit-identical at every worker
// count. It increments the jobs/chunks_computed counter of the context's
// registry, so in a fleet the counter tallies chunks at the node that
// actually computed them.
type LocalExecutor struct {
	// Workers bounds the per-chunk worker pool (<= 0 selects GOMAXPROCS).
	Workers int

	stats execStats
}

// Execute evaluates the chunk's points on the local par pool.
func (e *LocalExecutor) Execute(ctx context.Context, spec Spec, chunk Chunk) (*dataset.Dataset, error) {
	e.stats.chunks.Add(1)
	rows, err := sweep.EvalPoints(ctx, e.Workers, chunk.Points)
	if err != nil {
		e.stats.errors.Add(1)
		return nil, err
	}
	e.stats.served.Add(1)
	obs.From(ctx).Counter("jobs/chunks_computed").Add(1)
	return sweep.Dataset(rows), nil
}

// Stats reports the layer's lifetime counters.
func (e *LocalExecutor) Stats() ExecutorStats { return e.stats.snapshot("local") }

// EngineExecutor sends each chunk to an engine backend as a ranged sweep
// request: the chunk's point slice [Lo, Hi) of the spec's grid, keyed by
// its request key. Over the engine itself that computes the chunk here;
// over a cluster.PeerBackend the chunk routes to its key's owner on the
// one peer protocol, falling back to local compute on any peer failure,
// so which node computed a chunk never changes its bytes. Chunks that
// were not peer-served count in the context registry's
// jobs/chunks_computed, as LocalExecutor's do.
type EngineExecutor struct {
	// Backend serves the chunk requests (required).
	Backend engine.Backend
	// Workers bounds the per-chunk worker pool where the chunk computes
	// locally (<= 0 selects GOMAXPROCS); a peer computes at its own bound.
	Workers int

	stats execStats
}

// Execute evaluates the chunk as a ranged sweep request. The range is
// the chunk's place in the spec's partition: par.Ranges blocks are all
// spec.Chunk points long but the last.
func (e *EngineExecutor) Execute(ctx context.Context, spec Spec, chunk Chunk) (*dataset.Dataset, error) {
	e.stats.chunks.Add(1)
	spec = spec.normalized()
	lo := chunk.Index * spec.Chunk
	resp, err := e.Backend.Handle(ctx, engine.Request{
		Kind:    engine.KindSweep,
		Config:  spec.Base,
		Grid:    spec.Grid,
		Lo:      lo,
		Hi:      lo + len(chunk.Points),
		Workers: e.Workers,
	})
	if err != nil {
		e.stats.errors.Add(1)
		return nil, err
	}
	e.stats.served.Add(1)
	if !resp.Peer {
		obs.From(ctx).Counter("jobs/chunks_computed").Add(1)
	}
	return resp.Dataset, nil
}

// Stats reports the layer's lifetime counters.
func (e *EngineExecutor) Stats() ExecutorStats { return e.stats.snapshot("engine") }
