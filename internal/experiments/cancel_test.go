package experiments

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

// TestRunCancellation pins the context contract of the pipeline: a
// cancelled context aborts the run promptly, the error unwraps to
// context.Canceled, and no worker goroutines are left behind.
func TestRunCancellation(t *testing.T) {
	before := runtime.NumGoroutine()

	// Already-cancelled context: every registry entry must refuse to run,
	// including the serial experiments that never poll ctx themselves.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := &Runner{}
	r.MCTrials = 50
	for _, name := range r.Names() {
		start := time.Now()
		_, err := r.Run(ctx, name)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Errorf("%s: cancelled run took %v", name, d)
		}
	}

	// Cancellation mid-run: start an expensive Monte-Carlo run, cancel
	// shortly after, and require a prompt error return. readout runs
	// 15·MCTrials trials per study (300,000 here), so it meets its bound
	// only if each study checks ctx per trial, not just between studies.
	for _, tc := range []struct {
		name   string
		trials int
		after  time.Duration // run time before the cancel
		bound  time.Duration // allowed time from cancel to return
	}{
		{"montecarlo", 10000, 10 * time.Millisecond, 10 * time.Second},
		{"readout", 20000, 20 * time.Millisecond, time.Second},
	} {
		ctx2, cancel2 := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			heavy := &Runner{}
			heavy.MCTrials = tc.trials
			_, err := heavy.Run(ctx2, tc.name)
			done <- err
		}()
		time.Sleep(tc.after)
		cancel2()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%s mid-run cancel: err = %v, want context.Canceled", tc.name, err)
			}
		case <-time.After(tc.bound):
			t.Fatalf("cancelled %s run did not return within %v", tc.name, tc.bound)
		}
	}

	// The worker pools must have drained: allow scheduler noise but no
	// proportional leak.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= before+2 || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Errorf("goroutines leaked: %d before, %d after", before, after)
	}
}

// TestStudiesCancelMidRun pins the context contract of the noise and
// readout studies at every worker count: cancelling ctx while their trial
// chunks run returns ctx's error promptly, whichever worker holds which
// chunk.
func TestStudiesCancelMidRun(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		for _, name := range []string{"noise", "readout"} {
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() {
				// 1,000,000 noise trials per half, 300,000 readout
				// trials per study: seconds of work at any count.
				heavy := &Runner{MCTrials: 20000, Workers: workers}
				_, err := heavy.Run(ctx, name)
				done <- err
			}()
			time.Sleep(20 * time.Millisecond)
			cancel()
			select {
			case err := <-done:
				if !errors.Is(err, context.Canceled) {
					t.Errorf("%s (workers=%d): err = %v, want context.Canceled", name, workers, err)
				}
			case <-time.After(time.Second):
				t.Fatalf("cancelled %s run (workers=%d) did not return within 1s", name, workers)
			}
		}
	}
}
