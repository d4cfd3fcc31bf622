package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nwdec/internal/dataset"
	"nwdec/internal/engine"
	"nwdec/internal/jobs"
	"nwdec/internal/nwerr"
	"nwdec/internal/obs"
)

// The layers spans are attributed to. Spans the benchmark opens around
// its own operations have no layer: their self time is the time no layer
// span covers.
const (
	layerEngine    = "engine"
	layerCluster   = "cluster"
	layerDataset   = "dataset"
	layerJobsExec  = "jobs_exec"
	layerJobsStore = "jobs_store"
)

// selfLayers are the layers whose self time the traced run reports, with
// "" standing for the unattributed remainder.
var selfLayers = []string{"", layerEngine, layerCluster, layerDataset, layerJobsExec, layerJobsStore}

// span is one recorded interval. Times are offsets from the tracer's
// start. Label, Hit, Err and N carry what the layer metrics need: the
// request kind or store method, whether a cache or checkpoint served
// it, whether it failed, and a size (trials, points or bytes).
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	Req    int64         `json:"req,omitempty"`
	Name   string        `json:"name"`
	Layer  string        `json:"layer,omitempty"`
	Label  string        `json:"label,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Hit    bool          `json:"hit,omitempty"`
	Err    bool          `json:"err,omitempty"`
	N      int           `json:"n,omitempty"`
}

func (s *span) dur() time.Duration { return s.End - s.Start }

// tracer keeps every span of the traced run in memory. A nil tracer is
// the untraced run: opening a span costs nothing and records nothing.
type tracer struct {
	base  time.Time
	ids   atomic.Int64
	reqs  atomic.Int64
	root  atomic.Int64 // parent for spans whose context carries none
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

type spanKey struct{}

// spanRef is the span a context is inside of, and its request.
type spanRef struct{ id, req int64 }

func (t *tracer) now() time.Duration { return time.Since(t.base) }

// open is a started span; end records it.
type open struct {
	t *tracer
	s span
}

// begin opens a span under the context's span (or the current root) and
// returns a context that carries it. A layer call outside every measured
// operation (a correctness check between phases) records nothing.
func (t *tracer) begin(ctx context.Context, name, layer string) (context.Context, *open) {
	if t == nil {
		return ctx, nil
	}
	ref, ok := ctx.Value(spanKey{}).(spanRef)
	if !ok {
		if ref.id = t.root.Load(); ref.id == 0 && layer != "" {
			return ctx, nil
		}
	}
	o := &open{t: t, s: span{ID: t.ids.Add(1), Parent: ref.id, Req: ref.req, Name: name, Layer: layer}}
	o.s.Start = t.now()
	return context.WithValue(ctx, spanKey{}, spanRef{id: o.s.ID, req: o.s.Req}), o
}

// request opens the root span of one request with a fresh request ID.
func (t *tracer) request(ctx context.Context, name string) (context.Context, *open) {
	if t == nil {
		return ctx, nil
	}
	ctx = context.WithValue(ctx, spanKey{}, spanRef{req: t.reqs.Add(1)})
	return t.begin(ctx, name, "")
}

// phase opens a root span that also parents every span opened without a
// context, until it ends (the job layer's executor and store run on the
// runner's goroutine, out of reach of the benchmark's context).
func (t *tracer) phase(name string) *open {
	if t == nil {
		return nil
	}
	_, o := t.begin(context.Background(), name, "")
	o.s.Parent = 0
	t.root.Store(o.s.ID)
	return o
}

func (o *open) end() {
	if o == nil {
		return
	}
	o.s.End = o.t.now()
	if o.t.root.Load() == o.s.ID {
		o.t.root.Store(0)
	}
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

func (o *open) label(l string) {
	if o != nil {
		o.s.Label = l
	}
}

func (o *open) size(n int) {
	if o != nil {
		o.s.N = n
	}
}

func (o *open) result(hit bool, err error) {
	if o != nil {
		o.s.Hit = hit
		o.s.Err = err != nil
	}
}

// snapshot returns the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part
// of it that its children cover.
func selfTimes(spans []span) map[int64]time.Duration {
	children := make(map[int64][]int, len(spans))
	for i := range spans {
		children[spans[i].Parent] = append(children[spans[i].Parent], i)
	}
	self := make(map[int64]time.Duration, len(spans))
	for i := range spans {
		s := &spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered := time.Duration(0)
		lo, hi := s.Start, s.Start
		for _, k := range kids {
			cs, ce := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if ce <= cs {
				continue
			}
			if cs > hi {
				covered += hi - lo
				lo, hi = cs, ce
			} else if ce > hi {
				hi = ce
			}
		}
		covered += hi - lo
		self[s.ID] = s.dur() - covered
	}
	return self
}

// layerShares reports each layer's self time as a share of the summed
// duration of the root spans (the benchmark's operations).
func layerShares(spans []span, m *metrics) {
	self := selfTimes(spans)
	total := time.Duration(0)
	byLayer := map[string]time.Duration{}
	for i := range spans {
		s := &spans[i]
		if s.Parent == 0 {
			total += s.dur()
		}
		byLayer[s.Layer] += self[s.ID]
	}
	for _, l := range selfLayers {
		name := "self." + l
		if l == "" {
			name = "self.unattributed"
		}
		m.set(name, "ratio", ratio(float64(byLayer[l]), float64(total)))
	}
}

// tracedBackend records an engine.handle span around a local Engine.
type tracedBackend struct {
	next engine.Backend
	tr   *tracer
}

func (b tracedBackend) Handle(ctx context.Context, req engine.Request) (*engine.Response, error) {
	ctx, sp := b.tr.begin(ctx, "engine.handle", layerEngine)
	label := string(req.Kind)
	if req.Kind == engine.KindExperiment {
		label += "/" + req.Experiment
	}
	sp.label(label)
	sp.size(req.Trials)
	resp, err := b.next.Handle(ctx, req)
	sp.result(err == nil && resp.CacheHit, err)
	sp.end()
	return resp, err
}

func (b tracedBackend) Stats() engine.BackendStats { return b.next.Stats() }

// hasKind reports whether an engine.handle label names kind.
func hasKind(label, kind string) bool {
	return label == kind || strings.HasPrefix(label, kind+"/")
}

// traceHeader carries "<request id>/<span id>" across a peer hop.
const traceHeader = "X-Bench-Trace"

// tracingTransport records a cluster.peer_rt span per peer fetch, from
// the request until the response body is closed, and tags the request
// with its request and span IDs.
type tracingTransport struct {
	next http.RoundTripper
	tr   *tracer
}

func (t *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ctx, sp := t.tr.begin(req.Context(), "cluster.peer_rt", layerCluster)
	if sp == nil {
		return t.next.RoundTrip(req)
	}
	out := req.Clone(ctx)
	out.Header.Set(traceHeader, fmt.Sprintf("%d/%d", sp.s.Req, sp.s.ID))
	resp, err := t.next.RoundTrip(out)
	if err != nil {
		sp.result(false, err)
		sp.end()
		return nil, err
	}
	resp.Body = &tracedBody{ReadCloser: resp.Body, sp: sp}
	return resp, nil
}

// tracedBody ends the round-trip span when the caller closes the body,
// and records the bytes read.
type tracedBody struct {
	io.ReadCloser
	sp   *open
	n    int
	once sync.Once
}

func (b *tracedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += n
	return n, err
}

func (b *tracedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.sp.size(b.n)
		b.sp.end()
	})
	return err
}

// tracingHandler wraps the peer handler: it reads the hop's trace header,
// opens a cluster.peer_serve span under the caller's round-trip span and
// installs the run's obs registry for the owner's engine.
type tracingHandler struct {
	next http.Handler
	tr   *tracer
	reg  *obs.Registry
}

func (h tracingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	ctx := obs.Into(r.Context(), h.reg)
	var ref spanRef
	if _, err := fmt.Sscanf(r.Header.Get(traceHeader), "%d/%d", &ref.req, &ref.id); err == nil {
		ctx = context.WithValue(ctx, spanKey{}, ref)
	}
	ctx, sp := h.tr.begin(ctx, "cluster.peer_serve", layerCluster)
	h.next.ServeHTTP(w, r.WithContext(ctx))
	sp.end()
}

// tracedExecutor records a jobs.execute span per chunk.
type tracedExecutor struct {
	next jobs.Executor
	tr   *tracer
}

func (e tracedExecutor) Execute(ctx context.Context, spec jobs.Spec, chunk jobs.Chunk) (*dataset.Dataset, error) {
	ctx, sp := e.tr.begin(ctx, "jobs.execute", layerJobsExec)
	sp.size(len(chunk.Points))
	ds, err := e.next.Execute(ctx, spec, chunk)
	sp.result(false, err)
	sp.end()
	return ds, err
}

func (e tracedExecutor) Stats() jobs.ExecutorStats { return e.next.Stats() }

// tracedStore records a jobs.store span, labelled with the method, per
// store call. A GetChunk span is a hit when a checkpoint was read.
type tracedStore struct {
	next jobs.Store
	tr   *tracer
}

func (s tracedStore) begin(method string) *open {
	_, sp := s.tr.begin(context.Background(), "jobs.store", layerJobsStore)
	sp.label(method)
	return sp
}

func (s tracedStore) PutSpec(id string, spec jobs.Spec) error {
	sp := s.begin("PutSpec")
	err := s.next.PutSpec(id, spec)
	sp.result(false, err)
	sp.end()
	return err
}

func (s tracedStore) GetSpec(id string) (jobs.Spec, error) {
	sp := s.begin("GetSpec")
	spec, err := s.next.GetSpec(id)
	sp.result(err == nil, err)
	sp.end()
	return spec, err
}

func (s tracedStore) PutChunk(id string, idx int, ds *dataset.Dataset) error {
	sp := s.begin("PutChunk")
	err := s.next.PutChunk(id, idx, ds)
	sp.result(false, err)
	sp.end()
	return err
}

func (s tracedStore) GetChunk(id string, idx int) (*dataset.Dataset, error) {
	sp := s.begin("GetChunk")
	ds, err := s.next.GetChunk(id, idx)
	// A missing checkpoint is the runner's ordinary probe, not a failure.
	if nwerr.IsNotFound(err) {
		sp.result(false, nil)
	} else {
		sp.result(err == nil, err)
	}
	sp.end()
	return ds, err
}

func (s tracedStore) Chunks(id string) ([]int, error) {
	sp := s.begin("Chunks")
	idxs, err := s.next.Chunks(id)
	sp.result(false, err)
	sp.end()
	return idxs, err
}

func (s tracedStore) Jobs() ([]string, error) {
	sp := s.begin("Jobs")
	ids, err := s.next.Jobs()
	sp.result(false, err)
	sp.end()
	return ids, err
}

func (s tracedStore) Delete(id string) error {
	sp := s.begin("Delete")
	err := s.next.Delete(id)
	sp.result(false, err)
	sp.end()
	return err
}

func (s tracedStore) PutLease(id string, idx int, node string) error {
	sp := s.begin("PutLease")
	err := s.next.PutLease(id, idx, node)
	sp.result(false, err)
	sp.end()
	return err
}

func (s tracedStore) DeleteLease(id string, idx int) error {
	sp := s.begin("DeleteLease")
	err := s.next.DeleteLease(id, idx)
	sp.result(false, err)
	sp.end()
	return err
}

func (s tracedStore) Leases(id string) (map[int]string, error) {
	sp := s.begin("Leases")
	l, err := s.next.Leases(id)
	sp.result(false, err)
	sp.end()
	return l, err
}

// monoClock is the obs clock of the traced run.
type monoClock struct{ base time.Time }

func (c monoClock) Now() time.Duration { return time.Since(c.base) }

// counters reads every counter and histogram sum of the registry, keyed
// "<name>|<kind>", so a phase can report deltas over its own span.
func counters(reg *obs.Registry) map[string]float64 {
	out := map[string]float64{}
	if reg == nil {
		return out
	}
	for _, row := range reg.Snapshot().Rows {
		name, _ := row[0].(string)
		kind, _ := row[1].(string)
		v, _ := row[2].(float64)
		out[name+"|"+kind] = v
	}
	return out
}

// delta is a counter's growth since base.
func delta(reg *obs.Registry, base map[string]float64, key string) float64 {
	return counters(reg)[key] - base[key]
}

// busyRatioDelta is the share of par worker time spent busy since base,
// from the per-worker busy_ns and idle_ns counters.
func busyRatioDelta(reg *obs.Registry, base map[string]float64) float64 {
	busy, idle := 0.0, 0.0
	for key, v := range counters(reg) {
		if !strings.HasPrefix(key, "par/worker/") {
			continue
		}
		switch {
		case strings.HasSuffix(key, "/busy_ns|counter"):
			busy += v - base[key]
		case strings.HasSuffix(key, "/idle_ns|counter"):
			idle += v - base[key]
		}
	}
	return ratio(busy, busy+idle)
}

// spanSamples collects the durations of the spans that match.
func spanSamples(spans []span, match func(*span) bool) samples {
	var s samples
	for i := range spans {
		if match(&spans[i]) {
			s.add(spans[i].dur())
		}
	}
	return s
}
