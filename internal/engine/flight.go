package engine

import (
	"context"
	"sync"

	"nwdec/internal/nwerr"
	"nwdec/internal/obs"
)

// flight is one in-progress computation that concurrent identical
// requests can join instead of recomputing. The leader publishes resp/err
// and then closes done; followers block on done (or their own context)
// and read the published result. The close-channel broadcast replaces the
// WaitGroup idiom, which the project reserves for internal/par.
type flight struct {
	done chan struct{}
	resp *Response
	err  error
	// waiters counts joined followers; guarded by the backend's mu. The
	// leader clones its response for the flight only when someone is
	// actually waiting, so the solo fast path (every cache hit) stays
	// clone-free.
	waiters int
}

// singleflightBackend deduplicates concurrent identical requests: the
// first caller of a content address leads and descends into the chain;
// everyone else joins its flight and shares the result. It is the head
// of the chain — the cache layer runs inside the flight, so by the time
// a flight lands its result is already cached and a late arrival can
// never slip between the two and recompute.
type singleflightBackend struct {
	next Backend

	mu      sync.Mutex
	flights map[string]*flight

	stats layerStats
}

func newSingleflightBackend(next Backend) *singleflightBackend {
	return &singleflightBackend{
		next:    next,
		flights: make(map[string]*flight),
		stats:   layerStats{name: "singleflight"},
	}
}

// Stats reports the layer's lifetime counters.
func (b *singleflightBackend) Stats() BackendStats { return b.stats.Stats() }

// Handle leads or joins the flight for the request's content address.
// A follower shares the leader's result and the leader's error —
// including a Canceled one — since no computation of its own remains to
// continue; a follower whose own context dies stops waiting and returns
// Canceled.
func (b *singleflightBackend) Handle(ctx context.Context, req Request) (*Response, error) {
	b.stats.requests.Add(1)
	key := req.Key()
	f, leader := b.joinOrLead(key)
	if !leader {
		obs.From(ctx).Counter("engine/flight/joined").Add(1)
		select {
		case <-f.done:
		case <-ctx.Done():
			b.stats.errors.Add(1)
			return nil, nwerr.Canceled(ctx.Err())
		}
		if f.err != nil {
			b.stats.errors.Add(1)
			return nil, f.err
		}
		b.stats.served.Add(1)
		return f.resp.clone(true), nil
	}
	resp, err := b.next.Handle(ctx, req)
	b.land(f, key, resp, err)
	if err != nil {
		b.stats.errors.Add(1)
		return nil, err
	}
	return resp, nil
}

// joinOrLead returns the existing flight for key, or registers a new one
// led by the caller. The boolean reports leadership.
func (b *singleflightBackend) joinOrLead(key string) (*flight, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if f, ok := b.flights[key]; ok {
		f.waiters++
		return f, false
	}
	f := &flight{done: make(chan struct{})}
	b.flights[key] = f
	return f, true
}

// land publishes the leader's result and releases the followers. The
// response the leader received from the cache layer is its own private
// clone and the leader's caller is free to mutate it, so the flight
// stores a separate clone for the followers to clone from. The flight is
// deregistered before done is closed, so a request arriving after
// completion starts fresh — and finds the result already cached, because
// the cache layer ran inside the flight.
func (b *singleflightBackend) land(f *flight, key string, resp *Response, err error) {
	b.mu.Lock()
	delete(b.flights, key)
	waiters := f.waiters
	b.mu.Unlock()
	// No new follower can join once the flight is deregistered, so the
	// waiter count is final and f may be written until done closes.
	if resp != nil && waiters > 0 {
		f.resp = resp.clone(true)
	}
	f.err = err
	close(f.done)
}
