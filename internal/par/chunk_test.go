package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestChunkSizeHeuristic(t *testing.T) {
	cases := []struct {
		chunk, n, workers, want int
	}{
		{0, 1000, 4, 62},   // n/(w*4)
		{0, 3, 4, 1},       // heuristic floors at 1
		{0, 0, 4, 1},       // n = 0 still resolves to a positive size
		{5, 100, 4, 5},     // explicit override wins
		{500, 100, 4, 100}, // chunk > n clamps to n
		{1, 100, 4, 1},     // per-item granularity on request
		{0, 64, 1, 16},     // serial auto chunk
	}
	for _, c := range cases {
		if got := ChunkSize(c.chunk, c.n, c.workers); got != c.want {
			t.Errorf("ChunkSize(%d, %d, %d) = %d, want %d", c.chunk, c.n, c.workers, got, c.want)
		}
	}
}

// TestForEachChunksCoversExactly verifies that every index is visited
// exactly once for chunk sizes around the boundaries: 1, a divisor, a
// non-divisor, n itself and chunk > n.
func TestForEachChunksCoversExactly(t *testing.T) {
	const n = 97
	for _, chunk := range []int{1, 2, 7, 32, n, n + 13} {
		for _, w := range []int{1, 3, 8} {
			var hits [n]atomic.Int32
			err := ForEachChunks(context.Background(), w, n, chunk,
				func(_ context.Context, lo, hi int) error {
					if lo < 0 || hi > n || lo >= hi {
						return fmt.Errorf("bad block [%d, %d)", lo, hi)
					}
					for i := lo; i < hi; i++ {
						hits[i].Add(1)
					}
					return nil
				})
			if err != nil {
				t.Fatalf("chunk=%d workers=%d: %v", chunk, w, err)
			}
			for i := range hits {
				if hits[i].Load() != 1 {
					t.Errorf("chunk=%d workers=%d: index %d visited %d times", chunk, w, i, hits[i].Load())
				}
			}
		}
	}
}

// TestChunkOneMatchesPerItemSemantics pins the compatibility contract:
// chunk = 1 reproduces the historical per-item scheduling — serial first
// error, exact early-exit item count.
func TestChunkOneMatchesPerItemSemantics(t *testing.T) {
	var calls int
	err := ForEachChunks(context.Background(), 1, 10, 1, func(_ context.Context, lo, hi int) error {
		calls++
		if hi-lo != 1 {
			return fmt.Errorf("block [%d, %d) is not one item", lo, hi)
		}
		if lo >= 3 {
			return fmt.Errorf("boom at %d", lo)
		}
		return nil
	})
	if err == nil || err.Error() != "boom at 3" {
		t.Fatalf("err = %v", err)
	}
	if calls != 4 {
		t.Fatalf("chunk=1 serial path ran %d items after the error", calls)
	}
}

// TestFirstErrorAcrossChunkBoundaries fails two items in different blocks
// at every worker count and requires the lower-index failure to win: items
// in a block run in ascending order and blocks are reduced by ascending
// base index, so the winner is deterministic even in parallel. The worker
// count varies Map's block size: for n = 64 the heuristic gives blocks of
// 16, 8 and 2 at 1, 2 and 8 workers.
func TestFirstErrorAcrossChunkBoundaries(t *testing.T) {
	const n = 64
	for _, w := range []int{1, 2, 8} {
		chunk := ChunkSize(0, n, w)
		_, err := Map(context.Background(), w, make([]struct{}, n), func(_ context.Context, i int, _ struct{}) (int, error) {
			if i == 9 || i == 41 {
				return 0, fmt.Errorf("fail %d", i)
			}
			return i, nil
		})
		if err == nil {
			t.Fatalf("workers=%d chunk=%d: expected an error", w, chunk)
		}
		var idx int
		if _, serr := fmt.Sscanf(err.Error(), "fail %d", &idx); serr != nil {
			t.Fatalf("workers=%d chunk=%d: err = %v", w, chunk, err)
		}
		// 41's block can only win if 9's block never ran before
		// cancellation — impossible serially, and in parallel the
		// reported error must still be one of the injected failures.
		if idx != 9 && idx != 41 {
			t.Errorf("workers=%d chunk=%d: err = %v, want an injected failure", w, chunk, err)
		}
		if w == 1 && idx != 9 {
			t.Errorf("workers=1 chunk=%d: err = %v, want the serial first error", chunk, err)
		}
	}
}

// TestCancellationMidChunk cancels the caller's context while a block is in
// flight: Map's per-item loop must stop inside the block (not run it to
// completion) and the pool must report the context error, not a partial
// success.
func TestCancellationMidChunk(t *testing.T) {
	const n, w = 1000, 2
	chunk := ChunkSize(0, n, w)
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := Map(ctx, w, make([]struct{}, n), func(_ context.Context, i int, _ struct{}) (int, error) {
			if i == 0 {
				cancel()
				close(release)
				return i, nil
			}
			<-release
			ran.Add(1)
			return i, nil
		})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("pool did not observe mid-chunk cancellation")
	}
	// Item 0 cancelled before any other item of its block ran to
	// completion; the per-item ctx check must have cut the block short.
	if got := ran.Load(); got >= int32(chunk-1) {
		t.Errorf("block of %d ran %d items after cancellation", chunk, got)
	}
}

// TestChunkScratchArenaRaceClean is the contention test for the per-block
// scratch-arena pattern: every block allocates one buffer and reuses it
// across its items, many workers in flight. Run under -race this proves the
// arena confinement rule (scratch is block-local, results are index-slotted)
// needs no synchronization.
func TestChunkScratchArenaRaceClean(t *testing.T) {
	const n = 4096
	out := make([]int, n)
	err := ForEachChunks(context.Background(), runtime.GOMAXPROCS(0)*4, n, 0,
		func(_ context.Context, lo, hi int) error {
			scratch := make([]int, 0, hi-lo) // block-local arena, reused per item
			for i := lo; i < hi; i++ {
				scratch = append(scratch[:0], i, i*i)
				out[i] = scratch[0] + scratch[1]
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if out[i] != i+i*i {
			t.Fatalf("out[%d] = %d, want %d", i, out[i], i+i*i)
		}
	}
}

// TestChunkedEquivalence verifies bit-equality of index-slotted results
// across worker counts and chunk sizes, for ForEachChunks with an explicit
// chunk and for Map — the determinism contract the rest of the repository
// builds on.
func TestChunkedEquivalence(t *testing.T) {
	const n = 257
	ref := make([]int, n)
	for i := range ref {
		ref[i] = i*31 + 7
	}
	check := func(what string, got []int) {
		t.Helper()
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("%s: out[%d] = %d, want %d", what, i, got[i], ref[i])
			}
		}
	}
	for _, w := range []int{1, 2, 8} {
		for _, chunk := range []int{0, 1, 5, 64, n + 1} {
			got := make([]int, n)
			err := ForEachChunks(context.Background(), w, n, chunk, func(_ context.Context, lo, hi int) error {
				for i := lo; i < hi; i++ {
					got[i] = i*31 + 7
				}
				return nil
			})
			if err != nil {
				t.Fatalf("workers=%d chunk=%d: %v", w, chunk, err)
			}
			check(fmt.Sprintf("ForEachChunks workers=%d chunk=%d", w, chunk), got)
		}
		got, err := Map(context.Background(), w, make([]struct{}, n), func(_ context.Context, i int, _ struct{}) (int, error) {
			return i*31 + 7, nil
		})
		if err != nil {
			t.Fatalf("Map workers=%d: %v", w, err)
		}
		check(fmt.Sprintf("Map workers=%d", w), got)
	}
}

// TestRanges pins the job layer's partition: the blocks cover [0, n)
// exactly once in ascending order, only the last block may be short, n <= 0
// yields no blocks, and chunk <= 0 selects the ChunkSize heuristic at the
// default worker count.
func TestRanges(t *testing.T) {
	cases := []struct{ n, chunk, want int }{
		{10, 3, 3},
		{12, 4, 4},
		{5, 8, 5},
		{1, 1, 1},
		{1000, 0, ChunkSize(0, 1000, 0)},
		{7, -2, ChunkSize(0, 7, 0)},
	}
	for _, c := range cases {
		rs := Ranges(c.n, c.chunk)
		next := 0
		for k, r := range rs {
			if r.Lo != next {
				t.Fatalf("Ranges(%d, %d)[%d] starts at %d, want %d", c.n, c.chunk, k, r.Lo, next)
			}
			if k < len(rs)-1 && r.Len() != c.want {
				t.Errorf("Ranges(%d, %d)[%d] has %d items, want %d", c.n, c.chunk, k, r.Len(), c.want)
			}
			if r.Len() < 1 || r.Len() > c.want {
				t.Errorf("Ranges(%d, %d)[%d] = %+v, want 1..%d items", c.n, c.chunk, k, r, c.want)
			}
			next = r.Hi
		}
		if next != c.n {
			t.Errorf("Ranges(%d, %d) covers [0, %d), want [0, %d)", c.n, c.chunk, next, c.n)
		}
		if wantLen := (c.n + c.want - 1) / c.want; len(rs) != wantLen {
			t.Errorf("Ranges(%d, %d) has %d blocks, want %d", c.n, c.chunk, len(rs), wantLen)
		}
	}
	for _, n := range []int{0, -1} {
		if rs := Ranges(n, 4); len(rs) != 0 {
			t.Errorf("Ranges(%d, 4) = %v, want no blocks", n, rs)
		}
	}
}
