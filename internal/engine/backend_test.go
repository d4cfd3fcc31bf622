package engine

// White-box tests driving each backend layer in isolation through a stub
// next-layer, the way the Backend refactor promises: admission, cache and
// singleflight are each testable without the real compute dispatch, so
// their contracts (shed on saturation, serve-from-cache, one descent per
// flight) pin down deterministically instead of racing real workloads.

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"

	"nwdec/internal/dataset"
	"nwdec/internal/nwerr"
)

// stubBackend is a controllable next layer: it counts calls, optionally
// blocks until released, and returns a fixed response or error.
type stubBackend struct {
	mu      sync.Mutex
	calls   int
	entered chan struct{} // when set, Handle signals each entry on it
	release chan struct{} // when set, Handle blocks until it closes
	err     error
	stats   layerStats
}

func (s *stubBackend) Stats() BackendStats { return s.stats.Stats() }

func (s *stubBackend) Handle(ctx context.Context, req Request) (*Response, error) {
	s.mu.Lock()
	s.calls++
	s.mu.Unlock()
	if s.entered != nil {
		s.entered <- struct{}{}
	}
	if s.release != nil {
		<-s.release
	}
	if s.err != nil {
		return nil, s.err
	}
	return &Response{Dataset: dataset.New("stub", "stub"), Key: req.Key()}, nil
}

func (s *stubBackend) callCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

// TestAdmissionShedsWhenSaturated: with one slot and shed mode on, a
// request arriving while the slot is held must fail fast with an
// Overload-class error — and the layer must recover as soon as the slot
// frees, with no reset or restart.
func TestAdmissionShedsWhenSaturated(t *testing.T) {
	stub := &stubBackend{entered: make(chan struct{}, 1), release: make(chan struct{})}
	b := newAdmissionBackend(1, true, stub)
	req := Request{Kind: KindMonteCarlo, Trials: 1}

	done := make(chan error, 1)
	go func() {
		_, err := b.Handle(context.Background(), req)
		done <- err
	}()
	<-stub.entered // the slot is now provably held

	if _, err := b.Handle(context.Background(), req); !errors.Is(err, nwerr.ErrOverload) {
		t.Fatalf("saturated admission returned %v, want ErrOverload", err)
	}
	if got := b.Stats().Errors; got != 1 {
		t.Errorf("admission errors = %d, want 1", got)
	}

	close(stub.release)
	if err := <-done; err != nil {
		t.Fatalf("admitted request failed: %v", err)
	}
	// The slot is free again: the very next request is admitted.
	stub.entered, stub.release = nil, nil
	if _, err := b.Handle(context.Background(), req); err != nil {
		t.Fatalf("admission did not recover after the slot freed: %v", err)
	}
	if got := stub.callCount(); got != 2 {
		t.Errorf("next layer ran %d times, want 2 (the shed request never descended)", got)
	}
}

// TestAdmissionQueuesWithoutShed: in queueing mode a saturated semaphore
// blocks the caller instead of rejecting it, and a dead context aborts
// the wait with a Canceled-class error.
func TestAdmissionQueuesWithoutShed(t *testing.T) {
	stub := &stubBackend{entered: make(chan struct{}, 1), release: make(chan struct{})}
	b := newAdmissionBackend(1, false, stub)
	req := Request{Kind: KindMonteCarlo, Trials: 1}

	done := make(chan error, 1)
	go func() {
		_, err := b.Handle(context.Background(), req)
		done <- err
	}()
	<-stub.entered

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.Handle(ctx, req); !errors.Is(err, nwerr.ErrCanceled) {
		t.Fatalf("canceled waiter returned %v, want ErrCanceled", err)
	}
	close(stub.release)
	if err := <-done; err != nil {
		t.Fatalf("admitted request failed: %v", err)
	}
}

// TestCacheBackendServesRepeats: the cache layer answers a repeated key
// itself — the next layer runs exactly once — and hands out private
// clones, never the cached original.
func TestCacheBackendServesRepeats(t *testing.T) {
	stub := &stubBackend{}
	b := newCacheBackend(4, 1<<20, stub)
	req := Request{Kind: KindMonteCarlo, Trials: 1}

	first, err := b.Handle(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	second, err := b.Handle(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit || !second.CacheHit {
		t.Errorf("CacheHit = %v/%v, want false/true", first.CacheHit, second.CacheHit)
	}
	if got := stub.callCount(); got != 1 {
		t.Errorf("next layer ran %d times, want 1", got)
	}
	if first == second {
		t.Error("cache handed the same *Response to two callers")
	}
	st := b.Stats()
	if st.Requests != 2 || st.Served != 1 {
		t.Errorf("cache stats = %+v, want 2 requests, 1 served", st)
	}
}

// TestSingleflightDescendsOncePerFlight: concurrent identical requests
// produce exactly one descent into the next layer; followers share the
// leader's result as private clones.
func TestSingleflightDescendsOncePerFlight(t *testing.T) {
	stub := &stubBackend{entered: make(chan struct{}, 1), release: make(chan struct{})}
	b := newSingleflightBackend(stub)
	req := Request{Kind: KindMonteCarlo, Trials: 1}

	const followers = 4
	var wg sync.WaitGroup
	leadErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := b.Handle(context.Background(), req)
		leadErr <- err
	}()
	<-stub.entered // the leader holds the flight open

	resps := make([]*Response, followers)
	errs := make([]error, followers)
	wg.Add(followers)
	for i := 0; i < followers; i++ {
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = b.Handle(context.Background(), req)
		}(i)
	}
	// Wait until every follower has joined, then land the flight. Joining
	// happens before blocking on done, so once the map shows waiters the
	// count is monotonic.
	for {
		b.mu.Lock()
		joined := 0
		if f, ok := b.flights[req.Key()]; ok {
			joined = f.waiters
		}
		b.mu.Unlock()
		if joined == followers {
			break
		}
		runtime.Gosched()
	}
	close(stub.release)
	wg.Wait()
	if err := <-leadErr; err != nil {
		t.Fatal(err)
	}
	for i := 0; i < followers; i++ {
		if errs[i] != nil {
			t.Fatalf("follower %d: %v", i, errs[i])
		}
		if !resps[i].CacheHit {
			t.Errorf("follower %d did not report a shared result", i)
		}
	}
	if got := stub.callCount(); got != 1 {
		t.Errorf("next layer ran %d times, want 1", got)
	}
	if got := b.Stats().Served; got != followers {
		t.Errorf("singleflight served = %d, want %d", got, followers)
	}
}

// TestSingleflightLeaderErrorShared: a leader's failure propagates to its
// followers — and is not latched: the next request leads a fresh flight.
func TestSingleflightLeaderErrorShared(t *testing.T) {
	boom := errors.New("boom")
	stub := &stubBackend{err: boom}
	b := newSingleflightBackend(stub)
	req := Request{Kind: KindMonteCarlo, Trials: 1}
	if _, err := b.Handle(context.Background(), req); !errors.Is(err, boom) {
		t.Fatalf("leader error = %v, want boom", err)
	}
	stub.err = nil
	if _, err := b.Handle(context.Background(), req); err != nil {
		t.Fatalf("flight error latched: %v", err)
	}
	if got := stub.callCount(); got != 2 {
		t.Errorf("next layer ran %d times, want 2", got)
	}
}
