package cluster

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"nwdec/internal/dataset"
	"nwdec/internal/engine"
	"nwdec/internal/nwerr"
	"nwdec/internal/obs"
)

// PeerPath is the internal HTTP route of the peer protocol. Nodes POST
// the engine wire form of a request to the owner's PeerPath and receive
// the result dataset as JSON. The route is part of the fleet's internal
// surface, not the public API.
const PeerPath = "/peer/"

// DefaultPeerTimeout bounds one peer fetch. It must cover a full
// computation on the owner (experiments run for seconds, not
// milliseconds); a peer that cannot answer within it is treated as down
// and the request falls back to computing locally.
const DefaultPeerTimeout = 30 * time.Second

// Header names of the peer protocol.
const (
	headerCache = "X-Cache"
	headerKey   = "X-Request-Key"
)

// Options configures a PeerBackend.
type Options struct {
	// Self is this node's ID. It must be a member of Peers' key set
	// union {Self} — keys the ring assigns to Self are served locally.
	Self string
	// Peers maps every *other* node's ID to its base URL
	// (e.g. "http://10.0.0.2:8080"). Self must not appear as a key.
	Peers map[string]string
	// Timeout bounds one peer fetch (0 = DefaultPeerTimeout).
	Timeout time.Duration
	// Client issues the peer requests (nil = a private default client).
	Client *http.Client
}

// PeerBackend is an engine.Backend that routes each request to its key's
// owning node. It validates first, so a request any node would reject
// fails here without a hop. Requests this node owns — and requests that
// cannot cross the wire (custom threshold models, non-finite numbers) —
// go straight to the local engine. Requests a peer owns are POSTed to
// the peer's PeerPath; any peer failure (connection, timeout, non-200, a
// response under another key, undecodable body) falls back to computing
// locally, so the cluster degrades to a set of independent nodes rather
// than an outage. Job chunks are ranged sweep requests and route the
// same way.
//
// Routing everything through the key's owner is what makes the fleet
// compute each key once: the owner's singleflight coalesces concurrent
// fetches from every node, and the owner's cache is the key's single
// home. Peer-served responses are deliberately *not* re-cached locally —
// the owner is the cache home, and a second fetch hitting the owner's
// warm cache is exactly the cheap path the design wants.
type PeerBackend struct {
	self    string
	ring    *Ring
	peers   map[string]string
	client  *http.Client
	timeout time.Duration
	local   engine.Backend

	requests atomic.Int64
	remote   atomic.Int64
	errors   atomic.Int64
}

// NewPeerBackend builds the routing layer over the local engine (or any
// engine.Backend). The ring membership is Self plus every key of Peers.
func NewPeerBackend(local engine.Backend, opts Options) (*PeerBackend, error) {
	if opts.Self == "" {
		return nil, nwerr.Invalidf("cluster: node needs a non-empty -node-id")
	}
	if _, ok := opts.Peers[opts.Self]; ok {
		return nil, nwerr.Invalidf("cluster: peer set must not contain this node %q", opts.Self)
	}
	nodes := make([]string, 0, len(opts.Peers)+1)
	nodes = append(nodes, opts.Self)
	peers := make(map[string]string, len(opts.Peers))
	for id, base := range opts.Peers {
		if base == "" {
			return nil, nwerr.Invalidf("cluster: peer %q has an empty URL", id)
		}
		nodes = append(nodes, id)
		peers[id] = strings.TrimSuffix(base, "/")
	}
	ring, err := NewRing(nodes, 0)
	if err != nil {
		return nil, nwerr.Invalid(err)
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{}
	}
	timeout := opts.Timeout
	if timeout <= 0 {
		timeout = DefaultPeerTimeout
	}
	return &PeerBackend{
		self:    opts.Self,
		ring:    ring,
		peers:   peers,
		client:  client,
		timeout: timeout,
		local:   local,
	}, nil
}

// Ring exposes the backend's ring, for ownership introspection.
func (b *PeerBackend) Ring() *Ring { return b.ring }

// Stats reports the layer's lifetime counters. Served counts requests
// answered by a peer (the layer "served" them without local compute);
// Errors counts peer fetch failures — each one also produced a local
// fallback, so an error here is degraded latency, not a failed request.
func (b *PeerBackend) Stats() engine.BackendStats {
	return engine.BackendStats{
		Name:     "peer",
		Requests: b.requests.Load(),
		Served:   b.remote.Load(),
		Errors:   b.errors.Load(),
	}
}

// Handle routes one request: rejected if it is malformed, local if this
// node owns the key (or the request cannot cross the wire), otherwise
// fetched from the owner with fallback to local on any peer failure.
func (b *PeerBackend) Handle(ctx context.Context, req engine.Request) (*engine.Response, error) {
	b.requests.Add(1)
	if err := req.Validate(); err != nil {
		return nil, err
	}
	key := req.Key()
	owner := b.ring.Owner(key)
	base, ok := b.peers[owner]
	if owner == "" || owner == b.self || !ok {
		obs.From(ctx).Counter("cluster/peer/local").Add(1)
		return b.local.Handle(ctx, req)
	}
	body, err := req.MarshalWire()
	if err != nil {
		// Only this process can compute a request without a wire form;
		// that is a property of the request, not a peer failure.
		return b.local.Handle(ctx, req)
	}
	resp, err := b.fetch(ctx, base, body, key)
	if err != nil {
		b.errors.Add(1)
		obs.From(ctx).Counter("cluster/peer/fallback_local").Add(1)
		return b.local.Handle(ctx, req)
	}
	b.remote.Add(1)
	obs.From(ctx).Counter("cluster/peer/served").Add(1)
	return resp, nil
}

// fetch POSTs body, the request's wire form, to its owner. The owner runs
// the request through its own engine facade, so validation, caching,
// deduplication and admission all happen there; this side only moves
// bytes. The owner's X-Request-Key must echo the routed key: a mismatch
// means the owner computed some other request (a version skew — an older
// owner drops fields it does not know, such as a chunk's point range),
// and the response is rejected rather than served under the wrong
// label. The fetch is bounded by the per-peer timeout but stays on the
// caller's goroutine — the hedge against a dead peer is the local
// fallback in Handle, not a racing goroutine (this package is
// goroutine-free by project policy).
func (b *PeerBackend) fetch(ctx context.Context, base string, body []byte, key string) (resp *engine.Response, err error) {
	ctx, cancel := context.WithTimeout(ctx, b.timeout)
	defer cancel()
	span := obs.From(ctx).StartSpan("cluster/peer/fetch")
	defer span.End()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, base+PeerPath, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hresp, err := b.client.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := hresp.Body.Close(); err == nil && cerr != nil {
			err, resp = cerr, nil
		}
	}()
	if hresp.StatusCode != http.StatusOK {
		// Drain a little for connection reuse; the text is diagnostic only.
		msg, rerr := io.ReadAll(io.LimitReader(hresp.Body, 512))
		if rerr != nil {
			msg = []byte("(unreadable body: " + rerr.Error() + ")")
		}
		return nil, nwerr.Internalf("cluster: peer %s: status %d: %s", base, hresp.StatusCode, strings.TrimSpace(string(msg)))
	}
	if got := hresp.Header.Get(headerKey); got != key {
		return nil, nwerr.Internalf("cluster: peer %s answered key %q, want %q", base, got, key)
	}
	ds, err := dataset.ParseJSON(hresp.Body)
	if err != nil {
		return nil, err
	}
	return &engine.Response{
		Dataset:  ds,
		CacheHit: hresp.Header.Get(headerCache) == "hit",
		Peer:     true,
		Key:      key,
	}, nil
}

// PeerHandler serves PeerPath: it decodes the wire form of a request,
// runs it through the local backend (the node's own engine facade — NOT
// a peer backend, so a mis-routed request computes here instead of
// bouncing around the ring), and writes the result dataset as JSON.
// Errors map to status codes through nwerr.HTTPStatus; an Overload
// rejection carries Retry-After so a shedding owner pushes its peers
// into their local-fallback path with a hint to come back.
func PeerHandler(local engine.Backend) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
		if err != nil {
			writeError(w, nwerr.Invalidf("cluster: reading peer request: %w", err))
			return
		}
		req, err := engine.UnmarshalWire(body)
		if err != nil {
			writeError(w, err)
			return
		}
		resp, err := local.Handle(r.Context(), req)
		if err != nil {
			writeError(w, err)
			return
		}
		raw, err := resp.Dataset.JSON()
		if err != nil {
			writeError(w, nwerr.Internal(err))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set(headerKey, resp.Key)
		if resp.CacheHit {
			w.Header().Set(headerCache, "hit")
		} else {
			w.Header().Set(headerCache, "miss")
		}
		if _, err := w.Write(raw); err != nil {
			return // client went away; nothing to salvage
		}
	})
}

// writeError maps an error to its taxonomy status (with the Retry-After
// hint on 503) and writes it as the plain-text body.
func writeError(w http.ResponseWriter, err error) {
	status := nwerr.HTTPStatus(err)
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	http.Error(w, err.Error(), status)
}
