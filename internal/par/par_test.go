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

func TestWorkersResolution(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(5); got != 5 {
		t.Errorf("Workers(5) = %d", got)
	}
}

func TestMapPreservesOrder(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	for _, w := range []int{1, 2, 4, 0} {
		out, err := Map(context.Background(), w, items,
			func(_ context.Context, i, item int) (int, error) { return item * item, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", w, i, v, i*i)
			}
		}
	}
}

func TestMapNCoversEveryIndex(t *testing.T) {
	var hits [64]atomic.Int32
	out, err := Map(context.Background(), 4, make([]struct{}, 64), func(_ context.Context, i int, _ struct{}) (int, error) {
		hits[i].Add(1)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range hits {
		if hits[i].Load() != 1 {
			t.Errorf("index %d ran %d times", i, hits[i].Load())
		}
		if out[i] != i {
			t.Errorf("out[%d] = %d", i, out[i])
		}
	}
}

func TestForEachEmptyAndNegative(t *testing.T) {
	if err := ForEachChunks(context.Background(), 4, 0, 0, nil); err != nil {
		t.Errorf("n=0: %v", err)
	}
	if err := ForEachChunks(context.Background(), 4, -1, 0, nil); err != nil {
		t.Errorf("n=-1: %v", err)
	}
	out, err := Map(context.Background(), 4, []int(nil), func(_ context.Context, _, _ int) (int, error) { return 0, nil })
	if err != nil || len(out) != 0 {
		t.Errorf("nil items: out=%v err=%v", out, err)
	}
}

func TestSerialErrorIsFirstError(t *testing.T) {
	var calls int
	_, err := Map(context.Background(), 1, make([]struct{}, 10), func(_ context.Context, i int, _ struct{}) (int, error) {
		calls++
		if i >= 3 {
			return 0, fmt.Errorf("boom at %d", i)
		}
		return i, nil
	})
	if err == nil || err.Error() != "boom at 3" {
		t.Fatalf("err = %v", err)
	}
	if calls != 4 {
		t.Fatalf("serial path ran %d items after the error", calls)
	}
}

func TestParallelErrorIsObservedFailure(t *testing.T) {
	// Every item fails; whatever interleaving the scheduler picks, the
	// reported error must be one of the failures (the lowest index among
	// those that ran before cancellation).
	_, err := Map(context.Background(), 8, make([]struct{}, 100), func(_ context.Context, i int, _ struct{}) (int, error) {
		return 0, fmt.Errorf("fail %d", i)
	})
	var idx int
	if err == nil {
		t.Fatal("expected an error")
	}
	if _, serr := fmt.Sscanf(err.Error(), "fail %d", &idx); serr != nil || idx < 0 || idx >= 100 {
		t.Fatalf("err = %v, want a propagated item failure", err)
	}
}

func TestErrorCancelsRemainingWork(t *testing.T) {
	sentinel := errors.New("stop")
	var ran atomic.Int32
	_, err := Map(context.Background(), 2, make([]struct{}, 10000), func(ctx context.Context, i int, _ struct{}) (int, error) {
		ran.Add(1)
		if i == 0 {
			return 0, sentinel
		}
		// Give cancellation a moment to propagate so the count below is
		// meaningful rather than a pure race.
		select {
		case <-ctx.Done():
		case <-time.After(time.Millisecond):
		}
		return i, nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	if n := ran.Load(); n > 100 {
		t.Errorf("ran %d items after cancellation", n)
	}
}

func TestMapDiscardsPartialResultsOnError(t *testing.T) {
	out, err := Map(context.Background(), 4, []int{1, 2, 3, 4}, func(_ context.Context, i, v int) (int, error) {
		if i == 2 {
			return 0, errors.New("bad item")
		}
		return v, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if out != nil {
		t.Fatalf("partial results leaked: %v", out)
	}
}

func TestPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	_, err := Map(ctx, 4, make([]struct{}, 50), func(_ context.Context, i int, _ struct{}) (int, error) {
		ran.Add(1)
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestForEachPassesItems checks that every callback receives its own
// index together with the matching element, serially and in parallel.
func TestForEachPassesItems(t *testing.T) {
	items := []string{"a", "b", "c", "d", "e"}
	for _, w := range []int{1, 2} {
		out, err := Map(context.Background(), w, items,
			func(_ context.Context, i int, item string) (string, error) {
				return fmt.Sprintf("%d:%s", i, item), nil
			})
		if err != nil {
			t.Fatal(err)
		}
		for i, item := range items {
			if want := fmt.Sprintf("%d:%s", i, item); out[i] != want {
				t.Errorf("workers=%d: out[%d] = %q, want %q", w, i, out[i], want)
			}
		}
	}
}
