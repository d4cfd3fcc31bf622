package cluster

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"nwdec/internal/core"
	"nwdec/internal/dataset"
	"nwdec/internal/engine"
	"nwdec/internal/nwerr"
	"nwdec/internal/obs"
	"nwdec/internal/physics"
	"nwdec/internal/sweep"
)

// testNode is one in-process fleet member: an engine behind an httptest
// server exposing only the internal peer route, plus the routing backend
// the node's own clients would use.
type testNode struct {
	id      string
	eng     *engine.Engine
	srv     *httptest.Server
	backend *PeerBackend
}

// newTestCluster starts n cross-peered nodes. Every node runs its own
// engine; the rings agree because they are built from the same
// membership.
func newTestCluster(t testing.TB, n int) []*testNode {
	t.Helper()
	nodes := make([]*testNode, n)
	for i := range nodes {
		eng, err := engine.New(engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		mux := http.NewServeMux()
		mux.Handle("POST "+PeerPath, PeerHandler(eng))
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		nodes[i] = &testNode{id: string(rune('a' + i)), eng: eng, srv: srv}
	}
	for i, node := range nodes {
		peers := make(map[string]string)
		for j, other := range nodes {
			if j != i {
				peers[other.id] = other.srv.URL
			}
		}
		backend, err := NewPeerBackend(node.eng, Options{Self: node.id, Peers: peers})
		if err != nil {
			t.Fatal(err)
		}
		node.backend = backend
	}
	return nodes
}

// computeCount reads the engine's always-on compute-layer counter.
func computeCount(eng *engine.Engine) int64 {
	for _, st := range eng.BackendStats() {
		if st.Name == "compute" {
			return st.Requests
		}
	}
	return -1
}

// TestClusterComputesOncePerFleet is the cluster-wide coalescing proof:
// N concurrent identical requests arriving at every node of a 3-node
// fleet run exactly one computation across the whole cluster — the ring
// funnels them to one owner, and the owner's singleflight and cache
// absorb the fan-in. Run under -race this also exercises the peer path's
// synchronization.
func TestClusterComputesOncePerFleet(t *testing.T) {
	nodes := newTestCluster(t, 3)
	req := engine.Request{Kind: engine.KindCodes, Count: 3}
	owner := nodes[0].backend.Ring().Owner(req.Key())

	const perNode = 8
	var (
		wg    sync.WaitGroup
		start = make(chan struct{})
		mu    sync.Mutex
		resps []*engine.Response
	)
	for _, node := range nodes {
		for i := 0; i < perNode; i++ {
			wg.Add(1)
			go func(node *testNode) {
				defer wg.Done()
				<-start
				resp, err := node.backend.Handle(context.Background(), req)
				if err != nil {
					t.Errorf("node %s: %v", node.id, err)
					return
				}
				mu.Lock()
				resps = append(resps, resp)
				mu.Unlock()
			}(node)
		}
	}
	close(start)
	wg.Wait()

	var total int64
	for _, node := range nodes {
		c := computeCount(node.eng)
		if node.id != owner && c != 0 {
			t.Errorf("non-owner %s computed %d times, want 0", node.id, c)
		}
		total += c
	}
	if total != 1 {
		t.Errorf("fleet ran %d computations for one request key, want exactly 1", total)
	}
	if len(resps) != perNode*len(nodes) {
		t.Fatalf("%d responses, want %d", len(resps), perNode*len(nodes))
	}

	// Every response carries the same dataset bytes, whether it was
	// served locally on the owner or re-parsed from the peer protocol.
	var want bytes.Buffer
	if err := resps[0].Dataset.Render(&want, dataset.FormatJSON); err != nil {
		t.Fatal(err)
	}
	for i, resp := range resps {
		if resp.Key != req.Key() {
			t.Errorf("response %d: key %q, want %q", i, resp.Key, req.Key())
		}
		var got bytes.Buffer
		if err := resp.Dataset.Render(&got, dataset.FormatJSON); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("response %d serializes differently from response 0", i)
		}
	}
}

// TestClusterPeerProvenance: a request routed through a non-owning node
// reports Peer=true with the owner's hit/miss verdict — miss on first
// fetch, hit on the repeat (the owner's cache is the key's home; the
// requester deliberately does not re-cache).
func TestClusterPeerProvenance(t *testing.T) {
	nodes := newTestCluster(t, 2)
	req := engine.Request{Kind: engine.KindCodes, Count: 5}
	owner := nodes[0].backend.Ring().Owner(req.Key())
	var asker *testNode
	for _, node := range nodes {
		if node.id != owner {
			asker = node
		}
	}
	first, err := asker.backend.Handle(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Peer || first.CacheHit {
		t.Errorf("first fetch: Peer=%v CacheHit=%v, want peer miss", first.Peer, first.CacheHit)
	}
	second, err := asker.backend.Handle(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Peer || !second.CacheHit {
		t.Errorf("second fetch: Peer=%v CacheHit=%v, want peer hit", second.Peer, second.CacheHit)
	}
	if got := computeCount(asker.eng); got != 0 {
		t.Errorf("asker computed %d times, want 0", got)
	}
}

// TestClusterDeadPeerFallsBackLocal: a peer that cannot be reached
// degrades the key to local computation — the caller still gets a
// result, with Peer=false and the failure visible in the layer stats.
func TestClusterDeadPeerFallsBackLocal(t *testing.T) {
	eng, err := engine.New(engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	backend, err := NewPeerBackend(eng, Options{Self: "live", Peers: map[string]string{"dead": deadURL}})
	if err != nil {
		t.Fatal(err)
	}
	// Find a request the dead node owns, so the fetch must be attempted.
	var req engine.Request
	for count := 1; ; count++ {
		req = engine.Request{Kind: engine.KindCodes, Count: count}
		if backend.Ring().Owner(req.Key()) == "dead" {
			break
		}
	}
	resp, err := backend.Handle(context.Background(), req)
	if err != nil {
		t.Fatalf("dead peer surfaced as an error: %v", err)
	}
	if resp.Peer {
		t.Error("response claims peer provenance after a failed fetch")
	}
	if resp.Dataset == nil {
		t.Error("local fallback returned no dataset")
	}
	st := backend.Stats()
	if st.Errors != 1 {
		t.Errorf("peer stats errors = %d, want 1", st.Errors)
	}
	if got := computeCount(eng); got != 1 {
		t.Errorf("local engine computed %d times, want 1", got)
	}
}

// TestPeerBackendFailover pins every peer failure that must fall back
// to local compute: a 5xx, a timeout, and a 200 under another request's
// key. Each yields the correct dataset with the fallback counted — never
// an error, never a wrong result. The wrong-key owner predates point
// ranges: it drops a chunk's range and answers the whole grid.
func TestPeerBackendFailover(t *testing.T) {
	grid := sweep.Grid{Lengths: []int{4, 6}, SigmaTs: []float64{0.04, 0.05, 0.06}}
	stale, err := engine.New(engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		handler http.HandlerFunc
		timeout time.Duration
	}{
		{"peer-5xx", func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "boom", http.StatusInternalServerError)
		}, 0},
		{"peer-timeout", func(w http.ResponseWriter, r *http.Request) {
			// The server notices the client hanging up only once the
			// body is consumed.
			if _, err := io.Copy(io.Discard, r.Body); err != nil {
				return
			}
			select {
			case <-r.Context().Done():
			case <-time.After(2 * time.Second):
			}
		}, 50 * time.Millisecond},
		{"wrong-key", func(w http.ResponseWriter, r *http.Request) {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			req, err := engine.UnmarshalWire(body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			req.Lo, req.Hi = 0, 0
			if body, err = req.MarshalWire(); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
			PeerHandler(stale).ServeHTTP(w, r)
		}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(tc.handler)
			defer srv.Close()
			eng, err := engine.New(engine.Options{})
			if err != nil {
				t.Fatal(err)
			}
			backend, err := NewPeerBackend(eng, Options{
				Self:    "a",
				Peers:   map[string]string{"b": srv.URL},
				Timeout: tc.timeout,
			})
			if err != nil {
				t.Fatal(err)
			}
			var req engine.Request
			for lo := 0; ; lo++ {
				req = engine.Request{Kind: engine.KindSweep, Grid: grid, Lo: lo, Hi: lo + 1}
				if backend.Ring().Owner(req.Key()) == "b" {
					break
				}
			}
			reg := obs.New(nil)
			resp, err := backend.Handle(obs.Into(context.Background(), reg), req)
			if err != nil {
				t.Fatalf("fallback must absorb the peer failure, got %v", err)
			}
			if resp.Peer {
				t.Error("response claims peer provenance after a failed fetch")
			}
			want, err := eng.Do(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			got, err := resp.Dataset.JSON()
			if err != nil {
				t.Fatal(err)
			}
			wantJSON, err := want.Dataset.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(wantJSON) {
				t.Error("fallback dataset differs from local evaluation")
			}
			if n := reg.Counter("cluster/peer/fallback_local").Value(); n != 1 {
				t.Errorf("cluster/peer/fallback_local = %d, want 1", n)
			}
			if st := backend.Stats(); st.Errors != 1 || st.Served != 0 {
				t.Errorf("peer stats = %+v, want errors=1 served=0", st)
			}
		})
	}
}

// TestClusterNonWireableStaysLocal: a request with a custom threshold
// model cannot cross the wire, so it computes on the node that received
// it even when a peer owns its key: no fetch is attempted (the peer is
// unreachable, so one would count as an error), and no fallback is
// counted.
func TestClusterNonWireableStaysLocal(t *testing.T) {
	eng, err := engine.New(engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	backend, err := NewPeerBackend(eng, Options{Self: "live", Peers: map[string]string{"dead": "http://127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	req := engine.Request{Kind: engine.KindDesign, Config: core.Config{Model: physics.PaperExampleTable(), VMax: 0.6}}
	for backend.Ring().Owner(req.Key()) != "dead" {
		req.Seed++
	}
	reg := obs.New(nil)
	resp, err := backend.Handle(obs.Into(context.Background(), reg), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Peer {
		t.Error("custom-model request claims peer provenance")
	}
	if st := backend.Stats(); st.Errors != 0 {
		t.Errorf("non-wireable request attempted %d peer fetches", st.Errors)
	}
	if n := reg.Counter("cluster/peer/fallback_local").Value(); n != 0 {
		t.Errorf("cluster/peer/fallback_local = %d, want 0", n)
	}
}

// TestPeerBackendKeepsClientMistakesLocal: a request any node would
// reject fails on the node that received it, with its own error class,
// and a request whose wire form does not encode (a NaN σ_T) computes
// there. Neither reaches the peer that owns its key or counts as a peer
// failure.
func TestPeerBackendKeepsClientMistakesLocal(t *testing.T) {
	nodes := newTestCluster(t, 2)
	asker, owner := nodes[0], nodes[1]
	for _, tc := range []struct {
		name  string
		req   engine.Request
		class nwerr.Class
	}{
		{"zero-trials", engine.Request{Kind: engine.KindMonteCarlo}, nwerr.ClassInvalid},
		{"unknown-experiment", engine.Request{Kind: engine.KindExperiment, Experiment: "nope"}, nwerr.ClassNotFound},
		{"nan-sigma", engine.Request{Kind: engine.KindDesign, Config: core.Config{SigmaT: math.NaN()}}, nwerr.ClassInvalid},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req := tc.req
			for asker.backend.Ring().Owner(req.Key()) != owner.id {
				req.Seed++
			}
			reg := obs.New(nil)
			_, err := asker.backend.Handle(obs.Into(context.Background(), reg), req)
			if got := nwerr.ClassOf(err); err == nil || got != tc.class {
				t.Errorf("error %v (class %s), want class %s", err, got, tc.class)
			}
			if n := owner.eng.Stats().Requests; n != 0 {
				t.Errorf("owner engine saw %d requests, want 0", n)
			}
			if st := asker.backend.Stats(); st.Errors != 0 {
				t.Errorf("peer stats errors = %d, want 0", st.Errors)
			}
			if n := reg.Counter("cluster/peer/fallback_local").Value(); n != 0 {
				t.Errorf("cluster/peer/fallback_local = %d, want 0", n)
			}
		})
	}
}

// errorBackend stubs the local engine with a fixed error, for driving
// PeerHandler's status mapping.
type errorBackend struct{ err error }

func (b errorBackend) Handle(ctx context.Context, req engine.Request) (*engine.Response, error) {
	return nil, b.err
}
func (b errorBackend) Stats() engine.BackendStats { return engine.BackendStats{Name: "stub"} }

// TestPeerHandlerStatusMapping: the internal route speaks the nwerr
// taxonomy over HTTP — Overload is 503 with a Retry-After hint (the
// load-shedding contract), Canceled 408, Invalid 400 — and rejects
// bodies that are not the wire form.
func TestPeerHandlerStatusMapping(t *testing.T) {
	wire, err := engine.Request{Kind: engine.KindCodes, Count: 1}.MarshalWire()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name       string
		backendErr error
		body       string
		status     int
		retryAfter string
	}{
		{"overload", nwerr.Overloadf("saturated"), string(wire), http.StatusServiceUnavailable, "1"},
		{"canceled", nwerr.Canceled(context.Canceled), string(wire), http.StatusRequestTimeout, ""},
		{"invalid", nwerr.Invalidf("bad"), string(wire), http.StatusBadRequest, ""},
		{"internal", errors.New("boom"), string(wire), http.StatusInternalServerError, ""},
		{"bad-wire", nil, "{not json", http.StatusBadRequest, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := PeerHandler(errorBackend{err: tc.backendErr})
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, PeerPath, strings.NewReader(tc.body)))
			if rec.Code != tc.status {
				t.Errorf("status = %d, want %d", rec.Code, tc.status)
			}
			if got := rec.Header().Get("Retry-After"); got != tc.retryAfter {
				t.Errorf("Retry-After = %q, want %q", got, tc.retryAfter)
			}
		})
	}
}

// TestPeerHandlerRefusesNonWireable: /peer/ sits on every listener, so
// any client can POST to it. A kind no peer would ever send — here
// "fabricate", which names no engine kind — is refused by the engine's
// validation with 400 and never reaches the compute layer.
func TestPeerHandlerRefusesNonWireable(t *testing.T) {
	eng, err := engine.New(engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	PeerHandler(eng).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, PeerPath, strings.NewReader(`{"kind":"fabricate","seed":3}`)))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("status = %d, want %d: %s", rec.Code, http.StatusBadRequest, rec.Body)
	}
	if c := computeCount(eng); c != 0 {
		t.Errorf("compute layer ran %d requests, want 0", c)
	}
}

// TestPeerBackendOptions: misconfigurations fail construction with
// Invalid-class errors instead of surfacing later as routing surprises.
func TestPeerBackendOptions(t *testing.T) {
	eng, err := engine.New(engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for name, opts := range map[string]Options{
		"empty-self":    {Peers: map[string]string{"b": "http://x"}},
		"self-in-peers": {Self: "a", Peers: map[string]string{"a": "http://x"}},
		"empty-url":     {Self: "a", Peers: map[string]string{"b": ""}},
	} {
		if _, err := NewPeerBackend(eng, opts); !errors.Is(err, nwerr.ErrInvalid) {
			t.Errorf("%s: NewPeerBackend error = %v, want ErrInvalid", name, err)
		}
	}
}

// BenchmarkClusterRouting measures the steady-state cost of serving a
// sharded keyspace through a 3-node in-process fleet: each iteration
// routes one of 16 warm keys through one of the nodes round-robin, so
// roughly a third of fetches are local cache hits and the rest cross the
// peer protocol (ring lookup, HTTP round trip, dataset re-parse) to hit
// the owner's cache.
func BenchmarkClusterRouting(b *testing.B) {
	nodes := newTestCluster(b, 3)
	const keys = 16
	reqs := make([]engine.Request, keys)
	for i := range reqs {
		reqs[i] = engine.Request{Kind: engine.KindCodes, Count: i + 1}
	}
	ctx := context.Background()
	for _, req := range reqs {
		if _, err := nodes[0].backend.Handle(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		node := nodes[i%len(nodes)]
		resp, err := node.backend.Handle(ctx, reqs[i%keys])
		if err != nil {
			b.Fatal(err)
		}
		if !resp.CacheHit {
			b.Fatalf("key %d missed every cache in steady state", i%keys)
		}
	}
}
