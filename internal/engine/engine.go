// Package engine is the serving layer of the decoder pipeline: a typed
// request/response API fronting the expensive library entry points
// (core.NewDesign, core.Optimize, Design.MonteCarloYieldWorkers,
// experiments.Runner, sweep.RunWorkers, the code generators) behind a
// stack of composable backends, each owning one cross-cutting mechanism
// the entry points themselves stay free of:
//
//   - singleflight deduplication: concurrent identical requests share one
//     computation instead of racing to do the same work;
//   - a bounded, content-addressed result cache: the pipeline's
//     determinism invariant makes a request's identity fields a complete
//     address for its result, so equal requests — at any worker count —
//     are served from memory;
//   - admission control: a semaphore bounds the number of requests
//     computing at once, so a burst degrades to queueing (or, in shed
//     mode, to an Overload-class rejection) instead of unbounded memory
//     and scheduler pressure;
//   - computation: the kind dispatch itself.
//
// The layers compose through the Backend interface, in request-flow
// order singleflight → cache → admission → compute. The Engine facade
// validates and counts requests at the top of the chain and is itself a
// Backend, which is what lets internal/cluster route request keys across
// a fleet of engines: a peer backend composes over a remote node's
// facade exactly as the local layers compose over each other.
//
// nwsim, nwcodes, the nwserve HTTP facade and job chunks submit work
// through Engine.Do. A response is a dataset plus its provenance, so the
// commands that need live library objects (nwmem, nwdecoder, nwsweep's
// synchronous path) call the library directly. Errors carry the
// internal/nwerr taxonomy: malformed requests are Invalid, context
// cancellation is Canceled, shed work is Overload, everything else is
// Internal — callers branch with errors.Is instead of string matching.
//
// The engine is instrumented with internal/obs (request/compute counters
// per kind, cache hit/miss/eviction counters, in-flight gauge, per-kind
// spans) through the registry carried by the request context; with no
// registry installed the instrumentation is free. Each layer additionally
// keeps always-on atomic BackendStats, readable per layer through
// Engine.BackendStats.
package engine

import (
	"context"

	"nwdec/internal/nwerr"
	"nwdec/internal/obs"
)

// Cache sizing defaults. The cost unit is one dataset cell (see
// Response.cost); the default cost cap holds about a million cells —
// a few hundred times the repository's largest experiment dataset.
const (
	// DefaultMaxEntries bounds the number of cached responses.
	DefaultMaxEntries = 128
	// DefaultMaxCost bounds the total cached weight in cells.
	DefaultMaxCost int64 = 1 << 20
)

// Options configures an Engine. The zero value selects the defaults;
// negative caps are rejected by New with an Invalid-class error.
type Options struct {
	// MaxEntries caps the result cache's entry count
	// (0 = DefaultMaxEntries).
	MaxEntries int
	// MaxCost caps the result cache's total weight in cells
	// (0 = DefaultMaxCost).
	MaxCost int64
	// MaxInFlight caps the number of requests computing concurrently
	// (0 = GOMAXPROCS). Cached and deduplicated requests are served
	// without consuming a slot.
	MaxInFlight int
	// Shed selects the admission policy under saturation: false (the
	// default, what the CLIs want) queues until a slot frees or the
	// context dies; true (what a server under open-ended load wants)
	// fails fast with an Overload-class error the HTTP facade maps to
	// 503 + Retry-After.
	Shed bool
}

// validate rejects option values that would silently misbehave (a
// negative cap is neither "unlimited" nor "default" — it is a bug in the
// caller).
func (o Options) validate() error {
	if o.MaxEntries < 0 {
		return nwerr.Invalidf("engine: negative MaxEntries %d", o.MaxEntries)
	}
	if o.MaxCost < 0 {
		return nwerr.Invalidf("engine: negative MaxCost %d", o.MaxCost)
	}
	if o.MaxInFlight < 0 {
		return nwerr.Invalidf("engine: negative MaxInFlight %d", o.MaxInFlight)
	}
	return nil
}

// Engine is the facade over the backend stack: it validates requests,
// counts them, and hands them to the head of the chain. Construct with
// New; an Engine is safe for concurrent use and implements Backend.
type Engine struct {
	head      Backend
	flight    *singleflightBackend
	cache     *cacheBackend
	admission *admissionBackend
	compute   *computeBackend
	stats     layerStats
}

// New creates an engine with the given options. Invalid options (negative
// caps) are rejected with an Invalid-class error.
func New(opts Options) (*Engine, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if opts.MaxEntries == 0 {
		opts.MaxEntries = DefaultMaxEntries
	}
	if opts.MaxCost == 0 {
		opts.MaxCost = DefaultMaxCost
	}
	compute := newComputeBackend()
	admission := newAdmissionBackend(opts.MaxInFlight, opts.Shed, compute)
	cache := newCacheBackend(opts.MaxEntries, opts.MaxCost, admission)
	flight := newSingleflightBackend(cache)
	return &Engine{
		head:      flight,
		flight:    flight,
		cache:     cache,
		admission: admission,
		compute:   compute,
		stats:     layerStats{name: "engine"},
	}, nil
}

// InFlight returns the number of requests currently computing.
func (e *Engine) InFlight() int { return e.admission.inFlight() }

// CacheLen returns the number of cached responses.
func (e *Engine) CacheLen() int { return e.cache.len() }

// Stats reports the facade's lifetime counters (all requests entering
// the engine); the per-layer breakdown is BackendStats.
func (e *Engine) Stats() BackendStats { return e.stats.Stats() }

// BackendStats reports the lifetime counters of every layer, facade
// first, in request-flow order.
func (e *Engine) BackendStats() []BackendStats {
	return []BackendStats{
		e.Stats(),
		e.flight.Stats(),
		e.cache.Stats(),
		e.admission.Stats(),
		e.compute.Stats(),
	}
}

// Handle makes the Engine a Backend, so cluster routing layers compose
// over it. It is Do by another name.
func (e *Engine) Handle(ctx context.Context, req Request) (*Response, error) {
	return e.Do(ctx, req)
}

// Do serves one request: validate, then hand it to the backend chain —
// deduplicate against in-flight identical requests, consult the cache,
// and compute under admission control. The returned response is the
// caller's own — its dataset is a private clone — and its CacheHit field
// reports whether any computation happened on the caller's behalf. A
// ranged sweep (a job chunk) skips the chain and goes straight to the
// compute layer: chunks are never cached, deduplicated or shed.
//
// Errors are classified per internal/nwerr: a malformed request is
// Invalid (no work is admitted), ctx cancellation surfaces as Canceled,
// shed work is Overload, and computation failures pass through for
// ClassOf to read as Internal. A follower of a deduplicated flight
// shares the leader's result and the leader's error — including a
// Canceled one — since no computation of its own remains to continue.
func (e *Engine) Do(ctx context.Context, req Request) (*Response, error) {
	e.stats.requests.Add(1)
	if err := req.Validate(); err != nil {
		e.stats.errors.Add(1)
		return nil, err
	}
	req.key = req.Key() // memoize: one fingerprint per request, not one per layer
	reg := obs.From(ctx)
	reg.Counter("engine/requests").Add(1)
	reg.Counter("engine/" + string(req.Kind) + "/requests").Add(1)
	span := reg.StartSpan("engine/request/" + string(req.Kind))
	defer span.End()
	if err := ctx.Err(); err != nil {
		e.stats.errors.Add(1)
		return nil, nwerr.Canceled(err)
	}
	next := e.head
	if req.Hi != 0 {
		next = e.compute
	}
	resp, err := next.Handle(ctx, req)
	if err != nil {
		e.stats.errors.Add(1)
		return nil, err
	}
	return resp, nil
}
