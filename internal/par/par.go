// Package par is the deterministic parallel execution engine of the
// simulator: a bounded worker pool with two primitives, the block-level
// ForEachChunks and the order-preserving Map, used by every sweep,
// experiment grid and Monte-Carlo driver in the repository.
//
// Determinism is the design constraint. The pool never changes *what* is
// computed, only *when*: work items are pure functions of their index, every
// result lands in its input slot, and any reduction over the results happens
// in index order on the caller's side. Combined with the jump-based RNG
// substreams of package stats (each shard owns an independent
// xoshiro256** stream derived from the experiment seed), a sweep produces
// bit-identical output at every worker count — the serial path is simply
// workers = 1.
//
// Scheduling granularity is chunked: one dequeued unit of work is a
// contiguous index block [lo, hi), not a single item, so the per-task
// overhead (queue round-trip, clock reads, histogram observes) is amortized
// over ChunkSize items. Chunking never changes results — items inside a
// chunk run in ascending index order, chunks cover [0, n) exactly once.
package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"nwdec/internal/obs"
)

// Workers resolves a requested worker count: any value <= 0 selects
// runtime.GOMAXPROCS(0), the default of every parallel API in the
// repository.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// ChunkSize resolves a requested chunk size against the auto heuristic:
// any value <= 0 selects n/(workers*4) clamped to at least 1 — four chunks
// per worker balances load (stragglers can steal) against per-chunk
// scheduling overhead. The result never exceeds n (for n > 0).
func ChunkSize(chunk, n, workers int) int {
	if chunk <= 0 {
		chunk = n / (Workers(workers) * 4)
		if chunk < 1 {
			chunk = 1
		}
	}
	if chunk > n && n > 0 {
		chunk = n
	}
	return chunk
}

// Range is one contiguous index block [Lo, Hi) of a partitioned work
// space — the unit the chunked APIs schedule and the unit the job layer
// checkpoints.
type Range struct {
	Lo, Hi int
}

// Len returns the number of indices in the range.
func (r Range) Len() int { return r.Hi - r.Lo }

// Ranges partitions [0, n) into contiguous blocks of the given chunk size
// (<= 0 selects the ChunkSize heuristic at the default worker count). The
// blocks cover [0, n) exactly once in ascending order; the last block may
// be short. n <= 0 yields no blocks. The partition is a pure function of
// (n, chunk), which is what lets the job layer address each block by its
// index across process restarts.
func Ranges(n, chunk int) []Range {
	if n <= 0 {
		return nil
	}
	chunk = ChunkSize(chunk, n, 0)
	out := make([]Range, 0, (n+chunk-1)/chunk)
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		out = append(out, Range{Lo: lo, Hi: hi})
	}
	return out
}

// ForEachChunks runs fn(ctx, lo, hi) over contiguous index blocks covering
// [0, n) exactly once, on a bounded pool of workers. chunk <= 0 selects the
// ChunkSize heuristic. Blocks are claimed in ascending order; the first
// error in block order cancels the remaining work via the derived context
// and is returned (with workers = 1 this is exactly the serial first error;
// at higher worker counts it is the lowest-block error among the blocks
// that ran before cancellation took effect). A nil return guarantees every
// index was processed.
//
// This is the scratch-arena primitive: a block callback may allocate
// buffers once and reuse them across every item of its block, with no
// synchronization — the buffers are confined to one callback invocation,
// which the race detector can verify.
//
// When the context carries an obs.Registry the engine records per-worker
// item counts ("par/worker/<k>/tasks"), total items ("par/tasks"), chunk
// counts ("par/chunks"), pool invocations and sizes, and — when the
// registry has a clock — per-chunk durations ("par/task_ns") plus
// per-worker busy and idle (queue-wait) nanoseconds. Instrumentation is
// per-chunk, not per-item, so it never dominates microsecond-scale items;
// the metrics describe execution only and never change what is computed.
func ForEachChunks(ctx context.Context, workers, n, chunk int, fn func(ctx context.Context, lo, hi int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	chunk = ChunkSize(chunk, n, w)
	nchunks := (n + chunk - 1) / chunk
	if w > nchunks {
		w = nchunks
	}
	reg := obs.From(ctx)
	clock := reg.Clock()
	if w == 1 {
		tasks := reg.Counter("par/tasks")
		chunks := reg.Counter("par/chunks")
		wtasks := reg.Counter("par/worker/00/tasks")
		busy := reg.Counter("par/worker/00/busy_ns")
		chunkNS := reg.Histogram("par/task_ns")
		for lo := 0; lo < n; lo += chunk {
			if err := ctx.Err(); err != nil {
				return err
			}
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			var t0 time.Duration
			if clock != nil {
				t0 = clock.Now()
			}
			if err := fn(ctx, lo, hi); err != nil {
				reg.Counter("par/errors").Add(1)
				return err
			}
			if clock != nil {
				d := int64(clock.Now() - t0)
				busy.Add(d)
				chunkNS.Observe(d)
			}
			tasks.Add(int64(hi - lo))
			wtasks.Add(int64(hi - lo))
			chunks.Add(1)
		}
		return nil
	}

	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	reg.Counter("par/pools").Add(1)
	reg.Gauge("par/pool_size").Set(float64(w))
	reg.Gauge("par/chunk_size").Set(float64(chunk))
	tasks := reg.Counter("par/tasks")
	chunks := reg.Counter("par/chunks")
	chunkNS := reg.Histogram("par/task_ns")
	var poolStart time.Duration
	if clock != nil {
		poolStart = clock.Now()
	}
	var (
		next     atomic.Int64
		mu       sync.Mutex
		firstLo  = -1
		firstErr error
		wg       sync.WaitGroup
	)
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var done, doneChunks, busyNS int64
			for {
				c := int(next.Add(1) - 1)
				if c >= nchunks || wctx.Err() != nil {
					break
				}
				lo := c * chunk
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				var t0 time.Duration
				if clock != nil {
					t0 = clock.Now()
				}
				err := fn(wctx, lo, hi)
				if clock != nil {
					d := int64(clock.Now() - t0)
					busyNS += d
					chunkNS.Observe(d)
				}
				if err != nil {
					// A block that merely observed the pool's own
					// cancellation (another block failed, or the caller's
					// context expired) did not produce a new failure; the
					// canceling block recorded the real error, and a parent
					// cancellation is reported via ctx.Err() below.
					if cerr := wctx.Err(); cerr != nil && errors.Is(err, cerr) {
						break
					}
					reg.Counter("par/errors").Add(1)
					mu.Lock()
					if firstLo < 0 || lo < firstLo {
						firstLo, firstErr = lo, err
					}
					mu.Unlock()
					cancel()
					break
				}
				done += int64(hi - lo)
				doneChunks++
			}
			if reg != nil {
				prefix := fmt.Sprintf("par/worker/%02d/", k)
				tasks.Add(done)
				chunks.Add(doneChunks)
				reg.Counter(prefix + "tasks").Add(done)
				if clock != nil {
					reg.Counter(prefix + "busy_ns").Add(busyNS)
					reg.Counter(prefix + "idle_ns").Add(int64(clock.Now()-poolStart) - busyNS)
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// Map evaluates fn over every element of items on a bounded worker pool and
// returns the results in input order. Items are scheduled in ForEachChunks
// blocks of the ChunkSize heuristic; inside a block they run in ascending
// order, and a block stops at its first error or on cancellation. On error
// the partial results are discarded and the error ForEachChunks reports is
// returned: the lowest-index failure among the items that ran, which with
// workers = 1 is exactly the serial first error.
func Map[T, R any](ctx context.Context, workers int, items []T, fn func(ctx context.Context, i int, item T) (R, error)) ([]R, error) {
	out := make([]R, len(items))
	err := ForEachChunks(ctx, workers, len(items), 0, func(ctx context.Context, lo, hi int) error {
		for i := lo; i < hi; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			r, err := fn(ctx, i, items[i])
			if err != nil {
				return err
			}
			out[i] = r
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
