package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"nwdec/internal/dataset"
	"nwdec/internal/nwerr"
	"nwdec/internal/obs"
	"nwdec/internal/par"
	"nwdec/internal/sweep"
)

// Options configures a Runner. The zero value is usable.
type Options struct {
	// Workers bounds the per-chunk worker pool (<= 0 selects GOMAXPROCS).
	// It is an execution detail: results are bit-identical at every
	// worker count and Workers never enters the job identity.
	Workers int
	// Executor evaluates chunks (nil selects a LocalExecutor over
	// Workers). Distribution is an executor concern: an EngineExecutor
	// over a cluster.PeerBackend routes chunks across the fleet while the
	// Runner's checkpointing, lifecycle and status semantics stay exactly
	// as they are locally.
	Executor Executor
	// Node is this process's identity in chunk leases ("" = "local").
	// Like Workers it is an execution detail, never part of job identity.
	Node string
}

// Runner executes jobs against a Store. Each submitted job runs on its
// own goroutine, evaluating the chunk partition sequentially — chunk i
// is internally parallel on the par pool, but chunk i+1 starts only
// after chunk i is checkpointed, so the persisted chunks always form a
// contiguous prefix of the partition and partial results stream in
// order. Before computing a chunk the runner probes the store: a hit is
// served from the checkpoint (a "resumed" chunk), a miss is computed and
// checkpointed. Resume is therefore not a special mode — submitting a
// spec whose store already holds chunks is resume.
type Runner struct {
	store Store
	opts  Options
	exec  Executor
	node  string

	// ctx is the lifetime of the runner: Close cancels it, stopping
	// every job goroutine.
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu      sync.Mutex
	jobs    map[string]*job
	running int
}

// job is the in-memory state of one submitted job.
type job struct {
	spec   Spec
	status Status
	cancel context.CancelFunc
	// done closes when the job reaches a terminal state.
	done chan struct{}
}

// NewRunner creates a runner over the store. Close must be called to
// stop job goroutines; jobs interrupted by Close stay resumable.
func NewRunner(store Store, opts Options) *Runner {
	exec := opts.Executor
	if exec == nil {
		exec = &LocalExecutor{Workers: opts.Workers}
	}
	node := opts.Node
	if node == "" {
		node = "local"
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Runner{
		store:  store,
		opts:   opts,
		exec:   exec,
		node:   node,
		ctx:    ctx,
		cancel: cancel,
		jobs:   make(map[string]*job),
	}
}

// Close cancels every running job and waits for their goroutines to
// exit. Completed chunks are already checkpointed, so closed-out jobs
// resume from where they stopped.
func (r *Runner) Close() {
	r.cancel()
	r.wg.Wait()
}

// Submit starts (or joins) the job described by spec and returns its
// status. Submission is idempotent: the id is content-addressed, so
// resubmitting a spec already running or finished in this runner returns
// the existing job's status without side effects. The obs registry of
// ctx, if any, instruments the job for its whole lifetime; ctx's
// cancellation does not — jobs outlive their submitting request and stop
// only via Cancel or Close.
func (r *Runner) Submit(ctx context.Context, spec Spec) (Status, error) {
	spec = spec.normalized()
	if err := spec.validate(); err != nil {
		return Status{}, err
	}
	points := spec.Grid.Points(spec.Base)
	if len(points) == 0 {
		return Status{}, nwerr.Invalidf("jobs: grid produced no valid design points")
	}
	id := spec.ID()
	chunks := par.Ranges(len(points), spec.Chunk)

	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.ctx.Err(); err != nil {
		return Status{}, nwerr.Canceled(fmt.Errorf("jobs: runner closed: %w", err))
	}
	if j, ok := r.jobs[id]; ok {
		return j.status, nil
	}
	if err := r.store.PutSpec(id, spec); err != nil {
		return Status{}, err
	}
	reg := obs.From(ctx)
	jctx, jcancel := context.WithCancel(obs.Into(r.ctx, reg))
	j := &job{
		spec:   spec,
		cancel: jcancel,
		done:   make(chan struct{}),
		status: Status{
			ID:     id,
			State:  StateRunning,
			Key:    spec.Key(),
			Points: len(points),
			Chunks: len(chunks),
		},
	}
	r.jobs[id] = j
	reg.Counter("jobs/submitted").Add(1)
	r.running++
	reg.Gauge("jobs/running").Set(float64(r.running))
	r.wg.Add(1)
	go r.run(jctx, j, points, chunks)
	return j.status, nil
}

// Resume restarts a job persisted in the store: the spec is reloaded by
// id and resubmitted, so checkpointed chunks are served without
// recomputation and only the remainder is evaluated. Resuming a job
// already live in this runner returns its current status; an id no store
// has seen is a NotFound-class error.
func (r *Runner) Resume(ctx context.Context, id string) (Status, error) {
	r.mu.Lock()
	if j, ok := r.jobs[id]; ok {
		st := j.status
		r.mu.Unlock()
		return st, nil
	}
	r.mu.Unlock()
	spec, err := r.storedSpec(id)
	if err != nil {
		return Status{}, err
	}
	return r.Submit(ctx, spec)
}

// storedSpec loads the spec persisted under id. A spec that derives
// another id (a spec.json overwritten or copied from another job) is
// ErrCorrupt: resuming it would compute a different job.
func (r *Runner) storedSpec(id string) (Spec, error) {
	spec, err := r.store.GetSpec(id)
	if err != nil {
		return Spec{}, err
	}
	if got := spec.ID(); got != id {
		return Spec{}, fmt.Errorf("jobs: spec stored under %s describes job %s: %w", id, got, ErrCorrupt)
	}
	return spec, nil
}

// run executes one job's chunk loop on its own goroutine. The loop is
// sequential by design — chunk i+1 starts only after chunk i is
// checkpointed, preserving the contiguous-prefix invariant (DESIGN §14)
// — but each chunk's evaluation goes through the executor, which may
// compute it locally or route it across the fleet. Checkpointing never
// leaves this goroutine: whichever node computed a chunk, the submitting
// runner persists it, so resume byte-identity holds by construction.
func (r *Runner) run(ctx context.Context, j *job, points []sweep.Point, chunks []par.Range) {
	defer r.wg.Done()
	reg := obs.From(ctx)
	clock := reg.Clock()
	chunkNS := reg.Histogram("jobs/chunk_ns")
	id := j.status.ID
	// A lease that survived its writer marks a chunk a dead node left in
	// flight; the snapshot is advisory (a lease load failure only costs
	// the reclaim counter, never the job).
	leases, lerr := r.store.Leases(id)
	if lerr != nil {
		leases = nil
	}
	err := func() error {
		for i, rg := range chunks {
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			corrupt := false
			switch err := r.probe(id, i); {
			case err == nil:
				if err := r.store.DeleteLease(id, i); err != nil {
					return err
				}
				reg.Counter("jobs/chunks_resumed").Add(1)
				reg.Counter("jobs/chunks_done").Add(1)
				r.advance(j, func(s *Status) { s.Resumed++; s.Done++ })
				continue
			case errors.Is(err, ErrCorrupt):
				// A torn checkpoint is as good as missing: recompute the
				// chunk and let the atomic re-write replace the damage.
				reg.Counter("jobs/chunks_corrupt").Add(1)
				corrupt = true
			case !nwerr.IsNotFound(err):
				return err
			}
			if !corrupt && leases[i] != "" {
				reg.Counter("jobs/leases_reclaimed").Add(1)
			}
			if err := r.store.PutLease(id, i, r.node); err != nil {
				return err
			}
			var t0 time.Duration
			if clock != nil {
				t0 = clock.Now()
			}
			ds, err := r.exec.Execute(ctx, j.spec, Chunk{Index: i, Points: points[rg.Lo:rg.Hi]})
			if err != nil {
				return err
			}
			if err := r.store.PutChunk(id, i, ds); err != nil {
				return err
			}
			if err := r.store.DeleteLease(id, i); err != nil {
				return err
			}
			if clock != nil {
				chunkNS.Observe(int64(clock.Now() - t0))
			}
			reg.Counter("jobs/chunks_done").Add(1)
			r.advance(j, func(s *Status) { s.Computed++; s.Done++ })
		}
		return nil
	}()
	r.finish(j, err, reg)
}

// probe reports whether chunk idx of the job is checkpointed and intact:
// nil, NotFound-class or ErrCorrupt-wrapped. A CheckStore validates the
// checkpoint without building it; any other store builds it with
// GetChunk, and the dataset is dropped.
func (r *Runner) probe(id string, idx int) error {
	if cs, ok := r.store.(CheckStore); ok {
		return cs.CheckChunk(id, idx)
	}
	_, err := r.store.GetChunk(id, idx)
	return err
}

// advance applies one status mutation under the runner lock.
func (r *Runner) advance(j *job, mut func(*Status)) {
	r.mu.Lock()
	mut(&j.status)
	r.mu.Unlock()
}

// finish records the terminal state and wakes waiters.
func (r *Runner) finish(j *job, err error, reg *obs.Registry) {
	r.mu.Lock()
	switch {
	case err == nil:
		j.status.State = StateComplete
		reg.Counter("jobs/completed").Add(1)
	case nwerr.IsCanceled(err) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.status.State = StateCanceled
		j.status.Error = err.Error()
		reg.Counter("jobs/canceled").Add(1)
	default:
		j.status.State = StateFailed
		j.status.Error = err.Error()
		reg.Counter("jobs/failed").Add(1)
	}
	r.running--
	reg.Gauge("jobs/running").Set(float64(r.running))
	r.mu.Unlock()
	close(j.done)
}

// Status reports a job's progress. Jobs live in this runner report their
// in-memory status; jobs known only to the store report Suspended (or
// Complete when every chunk is checkpointed) with resumed/computed
// counts zero — those describe a live run, not stored state. An id
// neither the runner nor the store knows is a NotFound-class error.
func (r *Runner) Status(id string) (Status, error) {
	r.mu.Lock()
	if j, ok := r.jobs[id]; ok {
		st := j.status
		r.mu.Unlock()
		return st, nil
	}
	r.mu.Unlock()
	spec, err := r.storedSpec(id)
	if err != nil {
		return Status{}, err
	}
	spec = spec.normalized()
	points := spec.Grid.Points(spec.Base)
	chunks := par.Ranges(len(points), spec.Chunk)
	idxs, err := r.store.Chunks(id)
	if err != nil {
		return Status{}, err
	}
	st := Status{
		ID:     id,
		State:  StateSuspended,
		Key:    spec.Key(),
		Points: len(points),
		Chunks: len(chunks),
		Done:   len(idxs),
	}
	if len(idxs) == len(chunks) {
		st.State = StateComplete
	}
	return st, nil
}

// Cancel stops a running job. Its completed chunks stay checkpointed, so
// a canceled job is resumable. Canceling a job that already reached a
// terminal state wraps ErrAlreadyComplete; canceling an id this runner
// does not own is NotFound-class (a suspended job in the store has
// nothing running to cancel).
func (r *Runner) Cancel(id string) error {
	r.mu.Lock()
	j, ok := r.jobs[id]
	if !ok {
		r.mu.Unlock()
		return nwerr.NotFoundf("jobs: no running job %q", id)
	}
	if j.status.State.Terminal() {
		r.mu.Unlock()
		return fmt.Errorf("jobs: cancel %s: %w", id, ErrAlreadyComplete)
	}
	r.mu.Unlock()
	j.cancel()
	return nil
}

// Wait blocks until the job reaches a terminal state in this runner, or
// ctx is done (a Canceled-class error carrying the last observed
// status). A job known only to the store is already terminal —
// Suspended or Complete — and returns immediately.
func (r *Runner) Wait(ctx context.Context, id string) (Status, error) {
	r.mu.Lock()
	j, ok := r.jobs[id]
	r.mu.Unlock()
	if !ok {
		return r.Status(id)
	}
	select {
	case <-j.done:
		return r.Status(id)
	case <-ctx.Done():
		st, serr := r.Status(id)
		if serr != nil {
			st = Status{ID: id}
		}
		return st, nwerr.Canceled(fmt.Errorf("jobs: waiting for %s: %w", id, ctx.Err()))
	}
}

// Page is one Results response: the job's status at read time plus the
// datasets of a contiguous run of checkpointed chunks concatenated into
// one dataset (nil when the requested window is empty).
type Page struct {
	// Status is the job status observed with the page.
	Status Status
	// From is the index of the first chunk included.
	From int
	// Count is the number of chunks included.
	Count int
	// Dataset is the concatenation of the included chunks, nil when
	// Count is zero.
	Dataset *dataset.Dataset
}

// Results reads a window of the job's checkpointed output: up to max
// chunks (<= 0 means all) starting at chunk index from. Only the
// contiguous prefix of checkpointed chunks is served — the runner
// checkpoints in order, so the prefix is everything — and rows arrive in
// grid order, which makes a complete job's single-page read (0, 0)
// byte-identical to the dataset a synchronous sweep would have produced.
// Polling callers page with (done-so-far, 0) to stream increments.
func (r *Runner) Results(id string, from, max int) (Page, error) {
	st, err := r.Status(id)
	if err != nil {
		return Page{}, err
	}
	idxs, err := r.store.Chunks(id)
	if err != nil {
		return Page{}, err
	}
	// The checkpointed set is a contiguous prefix by construction; trim
	// defensively to the prefix anyway so a hand-edited store cannot
	// produce out-of-order rows.
	prefix := 0
	for _, idx := range idxs {
		if idx != prefix {
			break
		}
		prefix++
	}
	if from < 0 {
		return Page{}, nwerr.Invalidf("jobs: negative chunk offset %d", from)
	}
	if from >= prefix {
		return Page{Status: st, From: from}, nil
	}
	hi := prefix
	if max > 0 && from+max < hi {
		hi = from + max
	}
	parts := make([]*dataset.Dataset, 0, hi-from)
	for idx := from; idx < hi; idx++ {
		ds, err := r.store.GetChunk(id, idx)
		if err != nil {
			return Page{}, err
		}
		parts = append(parts, ds)
	}
	ds, err := dataset.Concat(parts...)
	if err != nil {
		return Page{}, err
	}
	return Page{Status: st, From: from, Count: hi - from, Dataset: ds}, nil
}

// Delete removes a terminal job — spec, checkpoints and leases — from
// the runner and its store. A job still running in this runner is
// refused with an Invalid-class error (cancel it first); an id neither
// the runner nor the store knows is NotFound-class from the store.
func (r *Runner) Delete(id string) error {
	r.mu.Lock()
	if j, ok := r.jobs[id]; ok {
		if !j.status.State.Terminal() {
			r.mu.Unlock()
			return nwerr.Invalidf("jobs: job %s is still running; cancel it before deleting", id)
		}
		delete(r.jobs, id)
	}
	r.mu.Unlock()
	return r.store.Delete(id)
}

// GC collects old terminal jobs from the store: every job not running in
// this runner whose state has not changed for longer than maxAge is
// deleted. It returns the deleted ids in id order. Age comes from the
// store's AgeStore extension and "now" from the caller — the job layer
// never reads the clock itself — so a store without ages (MemoryStore)
// is an Invalid-class error rather than a silent no-op. A job that
// starts running between the scan and its deletion is skipped, never
// collected: Delete re-checks under the runner lock.
func (r *Runner) GC(ctx context.Context, now time.Time, maxAge time.Duration) ([]string, error) {
	ages, ok := r.store.(AgeStore)
	if !ok {
		return nil, nwerr.Invalidf("jobs: %T records no ages; GC needs an AgeStore (use the filesystem store)", r.store)
	}
	ids, err := r.store.Jobs()
	if err != nil {
		return nil, err
	}
	var removed []string
	for _, id := range ids {
		r.mu.Lock()
		j, live := r.jobs[id]
		running := live && !j.status.State.Terminal()
		r.mu.Unlock()
		if running {
			continue
		}
		mt, err := ages.ModTime(id)
		if err != nil || now.Sub(mt) <= maxAge {
			continue // young, or deleted (or torn) under the scan
		}
		if err := r.Delete(id); err != nil {
			if nwerr.IsInvalid(err) || nwerr.IsNotFound(err) {
				continue // resumed or already gone since the scan
			}
			return removed, err
		}
		removed = append(removed, id)
	}
	if n := len(removed); n > 0 {
		obs.From(ctx).Counter("jobs/gc_collected").Add(int64(n))
	}
	return removed, nil
}
