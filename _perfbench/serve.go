package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/maphash"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"nwdec/internal/cluster"
	"nwdec/internal/code"
	"nwdec/internal/core"
	"nwdec/internal/dataset"
	"nwdec/internal/engine"
	"nwdec/internal/geometry"
	"nwdec/internal/nwerr"
	"nwdec/internal/obs"
	"nwdec/internal/sweep"
)

// serve-zipf: clients of a two-node nwserve fleet. The offered rate is a
// constant, about a third of the fleet's closed-loop capacity on a
// 2-core host, so the open-loop phase measures latency below saturation.
const (
	serveRate       = 2000 // requests per second offered in the open loop
	servePopulation = 4096 // distinct requests; several times the 2×128-entry fleet cache
	serveZipfS      = 1.1
	serveSenders    = 2 // sender goroutines, and peer connections per node (nproc)
	serveWarmDraws  = 1500
	serveChecks     = 24 // keys re-computed on a fresh single-node engine
	serveMaxLate    = time.Second

	// The measured time is cut into cycles of an open-loop slice
	// (serveOpenShare of the cycle) followed by a closed-loop slice, so
	// that both phases sample the host over the whole run: a slow spell of
	// a shared host then weighs on both alike instead of on whichever
	// phase it fell in.
	serveCycle     = 3 * time.Second
	serveOpenShare = 0.7

	// serveCatalogue seeds the population. It is the same on every run:
	// the fleet serves one catalogue of requests and the workload seed
	// draws the traffic over it. Which requests are popular, what they
	// cost and which node owns them moved the median latency by about a
	// tenth between seeds, as much as the host's own noise.
	serveCatalogue = 0x5eed
)

// serveKinds are the six request kinds nwserve serves, in equal shares:
// each popularity rank takes the next kind in turn, so every seed gives
// the popular ranks the same mix of kinds and only the parameters vary
// with the seed.
var serveKinds = []engine.Kind{
	engine.KindDesign, engine.KindOptimize, engine.KindMonteCarlo,
	engine.KindSweep, engine.KindExperiment, engine.KindCodes,
}

// serveExperiments are the experiments clients request: every registered
// one but noise and readout. Those two take about 17 and 52 ms a miss
// (every other kind and experiment stays under a few ms), so the fleet's
// tail would measure their compute, which the paper workload covers.
func serveExperiments() []string {
	var out []string
	for _, n := range engine.ExperimentNames() {
		if n != "noise" && n != "readout" {
			out = append(out, n)
		}
	}
	return out
}

var serveLengths = []int{4, 6, 8, 10, 12}

// serveConfig draws the design parameters an nwserve client sends.
func serveConfig(rng *rand.Rand) core.Config {
	spec := geometry.DefaultCrossbarSpec()
	spec.HalfCaveWires = 16 + 4*rng.IntN(2)
	return core.Config{
		CodeType:     code.AllTypes()[rng.IntN(5)],
		CodeLength:   serveLengths[rng.IntN(len(serveLengths))],
		SigmaT:       float64(30+rng.IntN(41)) / 1000,
		MarginFactor: float64(80+5*rng.IntN(9)) / 100,
		Spec:         spec,
	}
}

// serveRequest draws one request of the kind.
func serveRequest(rng *rand.Rand, kind engine.Kind, exps []string) engine.Request {
	cfg := serveConfig(rng)
	n := cfg.Spec.HalfCaveWires
	switch kind {
	case engine.KindMonteCarlo:
		return engine.Request{Kind: kind, Config: cfg, Trials: 4 + rng.IntN(13), Seed: rng.Uint64N(1 << 32)}
	case engine.KindCodes:
		return engine.Request{Kind: kind, Config: cfg, Count: n}
	case engine.KindExperiment:
		return engine.Request{Kind: kind, Experiment: exps[rng.IntN(len(exps))], Seed: 1 + rng.Uint64N(1<<20), Trials: 4 + rng.IntN(5)}
	case engine.KindOptimize:
		cfg.CodeType, cfg.CodeLength = 0, 0
		return engine.Request{Kind: kind, Config: cfg, Objective: core.Objective(rng.IntN(3))}
	case engine.KindSweep:
		g := sweep.Grid{MarginFactors: []float64{cfg.MarginFactor}, HalfCaveWires: []int{n}}
		for _, i := range rng.Perm(5)[:1+rng.IntN(2)] {
			g.Types = append(g.Types, code.AllTypes()[i])
		}
		for _, i := range rng.Perm(len(serveLengths))[:1+rng.IntN(2)] {
			g.Lengths = append(g.Lengths, serveLengths[i])
		}
		for k := 1 + rng.IntN(2); k > 0; k-- {
			g.SigmaTs = append(g.SigmaTs, float64(30+rng.IntN(41))/1000)
		}
		return engine.Request{Kind: kind, Grid: g}
	}
	return engine.Request{Kind: engine.KindDesign, Config: cfg}
}

// serveCatalogueRequests draws the catalogue's distinct requests in
// popularity order.
func serveCatalogueRequests() ([]engine.Request, []string, error) {
	rng := rand.New(rand.NewPCG(serveCatalogue, 0x5eed0001))
	exps := serveExperiments()
	pop := make([]engine.Request, 0, servePopulation)
	keys := make([]string, 0, servePopulation)
	seen := make(map[string]bool, servePopulation)
	for len(pop) < servePopulation {
		kind := serveKinds[len(pop)%len(serveKinds)]
		for tries := 0; ; tries++ {
			if tries == 1000 {
				return nil, nil, fmt.Errorf("population: no new %s request after %d draws", kind, tries)
			}
			req := serveRequest(rng, kind, exps)
			if k := req.Key(); !seen[k] {
				seen[k] = true
				pop = append(pop, req)
				keys = append(keys, k)
				break
			}
		}
	}
	return pop, keys, nil
}

// serveTuples lists the code tuples the population's designs use.
func serveTuples() []codeTuple {
	var out []codeTuple
	for _, tp := range code.AllTypes() {
		for _, l := range serveLengths {
			for _, n := range []int{16, 20} {
				out = append(out, codeTuple{tp, 2, l, n})
			}
		}
	}
	return out
}

type serveWorkload struct{}

// node is one fleet member: an engine with nwserve's defaults behind a
// peer backend, serving the peer protocol on a loopback httptest server.
type node struct {
	eng       *engine.Engine
	pb        *cluster.PeerBackend
	srv       *httptest.Server
	transport *http.Transport
}

type serveInstance struct {
	e      *env
	tr     *tracer
	reg    *obs.Registry
	pop    []engine.Request
	keys   []string
	stream []int32 // Zipf draws: population indices in send order
	pos    int     // stream position of the next phase
	nodes  []*node
	// hashes holds each key's response hash (low bit set; 0 = not seen).
	hashes []atomic.Uint64
	hseed  maphash.Seed
	shed   atomic.Int64

	regBase   map[string]float64
	statsBase map[string]float64
	shedBase  int64
	late      samples // generator lateness of the last open loop
}

func (serveWorkload) tuples() []codeTuple { return serveTuples() }

func (serveWorkload) setup(ctx context.Context, e *env, tr *tracer, reg *obs.Registry) (instance, error) {
	pop, keys, err := serveCatalogueRequests()
	if err != nil {
		return nil, err
	}
	s := &serveInstance{e: e, tr: tr, reg: reg, pop: pop, keys: keys, hashes: make([]atomic.Uint64, len(pop)), hseed: maphash.MakeSeed()}
	s.stream = zipfStream(e.cfg.seed, len(pop), serveWarmDraws+int(float64(serveRate)*e.cfg.seconds.Seconds())+200_000)
	if err := s.startFleet(tr, reg); err != nil {
		s.close()
		return nil, err
	}
	if err := s.warm(ctx); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// zipfStream draws n population indices, Zipf-distributed over ranks.
func zipfStream(seed uint64, size, n int) []int32 {
	z := rand.NewZipf(rand.New(rand.NewPCG(seed, 0x5eed0002)), serveZipfS, 1, uint64(size-1))
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(z.Uint64())
	}
	return out
}

// startFleet builds the two nodes and peers them with each other.
func (s *serveInstance) startFleet(tr *tracer, reg *obs.Registry) error {
	ids := []string{"a", "b"}
	for range ids {
		eng, err := engine.New(engine.Options{Shed: true})
		if err != nil {
			return err
		}
		var local engine.Backend = eng
		if tr != nil {
			local = tracedBackend{next: eng, tr: tr}
		}
		var h http.Handler = cluster.PeerHandler(local)
		if tr != nil {
			h = tracingHandler{next: h, tr: tr, reg: reg}
		}
		mux := http.NewServeMux()
		mux.Handle("POST "+cluster.PeerPath, h)
		s.nodes = append(s.nodes, &node{eng: eng, srv: httptest.NewServer(mux)})
	}
	for i, n := range s.nodes {
		n.transport = &http.Transport{MaxConnsPerHost: serveSenders, MaxIdleConnsPerHost: serveSenders}
		var rt http.RoundTripper = n.transport
		var local engine.Backend = n.eng
		if tr != nil {
			rt = &tracingTransport{next: n.transport, tr: tr}
			local = tracedBackend{next: n.eng, tr: tr}
		}
		peer := s.nodes[1-i]
		pb, err := cluster.NewPeerBackend(local, cluster.Options{
			Self:   ids[i],
			Peers:  map[string]string{ids[1-i]: peer.srv.URL},
			Client: &http.Client{Transport: rt},
		})
		if err != nil {
			return err
		}
		n.pb = pb
	}
	return nil
}

func (s *serveInstance) close() {
	for _, n := range s.nodes {
		n.srv.Close()
		if n.transport != nil {
			n.transport.CloseIdleConnections()
		}
	}
	s.nodes = nil
}

// warm is the set-up's untimed pass: one design per code tuple and every
// experiment clients request (which fills the generator caches), then a
// prefix of the Zipf stream (which fills the fleet's result caches).
func (s *serveInstance) warm(ctx context.Context) error {
	var reqs []engine.Request
	for _, t := range serveTuples() {
		spec := geometry.DefaultCrossbarSpec()
		spec.HalfCaveWires = t.n
		reqs = append(reqs, engine.Request{Kind: engine.KindDesign, Config: core.Config{CodeType: t.tp, CodeLength: t.length, Spec: spec}})
	}
	for _, name := range serveExperiments() {
		reqs = append(reqs, engine.Request{Kind: engine.KindExperiment, Experiment: name})
	}
	for i, req := range reqs {
		if _, err := s.nodes[i%2].pb.Handle(ctx, req); err != nil {
			return fmt.Errorf("warm-up %s: %w", req.Key(), err)
		}
	}
	var buf bytes.Buffer
	for i := 0; i < serveWarmDraws; i++ {
		p := int(s.stream[i])
		resp, err := s.send(ctx, p, i%2, &buf)
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", s.keys[p], err)
		}
		s.verify(p, resp, &buf)
	}
	s.pos = serveWarmDraws
	return nil
}

// send serves population request p through the entry node's peer backend
// and renders the response to JSON as nwserve's handler does.
func (s *serveInstance) send(ctx context.Context, p, entry int, buf *bytes.Buffer) (*engine.Response, error) {
	ctx, root := s.tr.request(ctx, "serve.request")
	defer root.end()
	if s.reg != nil {
		ctx = obs.Into(ctx, s.reg)
	}
	rctx, sp := s.tr.begin(ctx, "cluster.route", layerCluster)
	resp, err := s.nodes[entry].pb.Handle(rctx, s.pop[p])
	sp.result(false, err)
	sp.end()
	if err != nil {
		if errors.Is(err, nwerr.ErrOverload) {
			s.shed.Add(1)
		}
		return nil, err
	}
	if resp.Dataset == nil {
		return nil, fmt.Errorf("%s: response has no dataset", s.keys[p])
	}
	_, rs := s.tr.begin(ctx, "dataset.render", layerDataset)
	buf.Reset()
	err = resp.Dataset.Render(buf, dataset.FormatJSON)
	rs.end()
	return resp, err
}

// verify checks a response: it must carry the request's key, and its JSON
// must equal every earlier response for the key, whichever node, path or
// cache state served it.
func (s *serveInstance) verify(p int, resp *engine.Response, buf *bytes.Buffer) bool {
	if resp.Key != s.keys[p] {
		s.e.fail("serve: response key %q for request %q", resp.Key, s.keys[p])
		return false
	}
	h := maphash.Bytes(s.hseed, buf.Bytes()) | 1
	if !s.hashes[p].CompareAndSwap(0, h) && s.hashes[p].Load() != h {
		s.e.fail("serve: %s: response bytes differ from an earlier response", s.keys[p])
		return false
	}
	return true
}

// do sends one measured request and reports whether it succeeded and
// passed its checks, and when it finished.
func (s *serveInstance) do(ctx context.Context, p, entry int, buf *bytes.Buffer) (bool, time.Time) {
	s.e.attempted.Add(1)
	resp, err := s.send(ctx, p, entry, buf)
	done := time.Now()
	if err != nil {
		s.e.fail("serve: %s: %v", s.keys[p], err)
		return false, done
	}
	return s.verify(p, resp, buf), done
}

func (s *serveInstance) measure(ctx context.Context, d time.Duration, m *metrics) error {
	s.regBase = counters(s.reg)
	s.statsBase = s.fleetStats()
	s.shedBase = s.shed.Load()
	cycles := max(1, int(d/serveCycle))
	cycle := d / time.Duration(cycles)
	open := time.Duration(float64(cycle) * serveOpenShare)
	var lat, late samples
	var served int64
	var closed time.Duration
	for c := 0; c < cycles && ctx.Err() == nil; c++ {
		l, lt := s.openLoop(ctx, open)
		lat, late = append(lat, l...), append(late, lt...)
		n, el := s.closedLoop(ctx, cycle-open)
		served, closed = served+n, closed+el
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	rps := float64(served) / closed.Seconds()
	s.late = late
	m.timing("p50_ms", "ms", lat.median(), lat)
	m.set("throughput_per_s", "1/s", rps)
	m.timing("serve.p50_ms", "ms", lat.median(), lat)
	m.timing("serve.p90_ms", "ms", lat.quantile(0.9), lat)
	m.timing("serve.p99_ms", "ms", lat.quantile(0.99), lat)
	m.set("serve.rps", "1/s", rps)
	m.timing("loadgen.late_p99_ms", "ms", late.quantile(0.99), late)
	return nil
}

// openLoop sends serveRate requests per second for d from at most
// serveSenders goroutines, alternating the entry node. Each latency runs
// from the request's due time through its JSON render; a failed request,
// or one the generator could not send within serveMaxLate of its due
// time, is infinitely late.
func (s *serveInstance) openLoop(ctx context.Context, d time.Duration) (lat, late samples) {
	n := int(float64(serveRate) * d.Seconds())
	interval := time.Second / serveRate
	base := s.pos
	s.pos += n
	start := time.Now().Add(time.Millisecond)
	var next atomic.Int64
	lats := make([]samples, serveSenders)
	lates := make([]samples, serveSenders)
	var wg sync.WaitGroup
	for k := 0; k < serveSenders; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			var buf bytes.Buffer
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				waitUntil(due)
				behind := time.Since(due)
				lates[k].add(behind)
				p := int(s.stream[(base+i)%len(s.stream)])
				if behind > serveMaxLate {
					s.e.attempted.Add(1)
					s.e.fail("serve: generator %v behind schedule", behind)
					lats[k].fail()
					continue
				}
				ok, done := s.do(ctx, p, i%2, &buf)
				if ok {
					lats[k].add(done.Sub(due))
				} else {
					lats[k].fail()
				}
			}
		}(k)
	}
	wg.Wait()
	for k := range lats {
		lat = append(lat, lats[k]...)
		late = append(late, lates[k]...)
	}
	return lat, late
}

// waitUntil returns at t. The runtime's timers wake up to a millisecond
// late and a nanosleep tens of microseconds late, varying with the host's
// load, which would dominate sub-millisecond latencies timed from t. So
// the runtime timer covers all but the last 1.5 ms, a nanosleep all but
// the last spinWindow, and a busy wait the rest.
func waitUntil(t time.Time) {
	const spinWindow = 150 * time.Microsecond
	for {
		d := time.Until(t)
		switch {
		case d <= 0:
			return
		case d > 2*time.Millisecond:
			time.Sleep(d - 1500*time.Microsecond)
		case d > spinWindow:
			ts := syscall.NsecToTimespec(int64(d - spinWindow))
			if err := syscall.Nanosleep(&ts, nil); err != nil && err != syscall.EINTR {
				time.Sleep(d - spinWindow)
			}
		}
	}
}

// closedLoop runs serveSenders clients that each send their next request
// when the previous one completes, for d, and returns how many requests
// succeeded and how long the loop ran.
func (s *serveInstance) closedLoop(ctx context.Context, d time.Duration) (int64, time.Duration) {
	var next, ok atomic.Int64
	base := s.pos
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for k := 0; k < serveSenders; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for ctx.Err() == nil && time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				p := int(s.stream[(base+i)%len(s.stream)])
				if good, _ := s.do(ctx, p, i%2, &buf); good {
					ok.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	s.pos += int(next.Load())
	return ok.Load(), elapsed
}

// check recomputes a seeded sample of the served keys on a fresh
// single-node engine and compares the JSON bytes.
func (s *serveInstance) check(ctx context.Context) error {
	eng, err := engine.New(engine.Options{})
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewPCG(s.e.cfg.seed, 0x5eed0003))
	var buf bytes.Buffer
	checked := 0
	for _, p := range rng.Perm(len(s.pop)) {
		if checked == serveChecks {
			break
		}
		want := s.hashes[p].Load()
		if want == 0 {
			continue
		}
		checked++
		resp, err := eng.Do(ctx, s.pop[p])
		if err != nil {
			return fmt.Errorf("check %s: %w", s.keys[p], err)
		}
		buf.Reset()
		if err := resp.Dataset.Render(&buf, dataset.FormatJSON); err != nil {
			return err
		}
		if maphash.Bytes(s.hseed, buf.Bytes())|1 != want {
			s.e.fail("serve: %s: fleet response differs from a fresh single-node engine", s.keys[p])
		}
	}
	if checked == 0 {
		s.e.fail("serve: no key was served")
	}
	return nil
}

// fleetStats sums the fleet's BackendStats and peer-backend stats, keyed
// "<layer>.<counter>".
func (s *serveInstance) fleetStats() map[string]float64 {
	out := map[string]float64{}
	for _, n := range s.nodes {
		stats := append(n.eng.BackendStats(), n.pb.Stats())
		for _, st := range stats {
			out[st.Name+".requests"] += float64(st.Requests)
			out[st.Name+".served"] += float64(st.Served)
			out[st.Name+".errors"] += float64(st.Errors)
		}
	}
	return out
}

// layers derives the engine, cluster, dataset and load-generator metrics
// of the traced phase.
func (s *serveInstance) layers(m *metrics) {
	spans := s.tr.snapshot()
	hits := spanSamples(spans, func(sp *span) bool { return sp.Name == "engine.handle" && sp.Hit })
	m.timing("engine.hit_us", "us", hits.mean()*1000, hits)
	for _, k := range []engine.Kind{engine.KindDesign, engine.KindOptimize, engine.KindMonteCarlo, engine.KindSweep, engine.KindExperiment, engine.KindCodes} {
		kind := string(k)
		miss := spanSamples(spans, func(sp *span) bool {
			return sp.Name == "engine.handle" && !sp.Hit && !sp.Err && hasKind(sp.Label, kind)
		})
		m.timing("engine.miss_ms."+kind, "ms", miss.mean(), miss)
	}
	st := s.fleetStats()
	for k, v := range s.statsBase {
		st[k] -= v
	}
	m.set("engine.cache_hit_ratio", "ratio", ratio(st["cache.served"], st["cache.requests"]))
	m.set("engine.flight_join_ratio", "ratio", ratio(st["singleflight.served"], st["singleflight.requests"]))
	m.set("engine.evictions", "count", delta(s.reg, s.regBase, "engine/cache/evictions|counter"))
	m.set("engine.shed_ratio", "ratio", ratio(float64(s.shed.Load()-s.shedBase), st["engine.requests"]))
	m.set("cluster.peer_share", "ratio", ratio(st["peer.served"], st["peer.requests"]))
	m.set("cluster.fallbacks", "count", st["peer.errors"])

	// A hop is the peer round trip minus the owner's Engine.Handle, which
	// the peer handler's span parents.
	serve := map[int64]int64{} // round-trip span → handler span
	handle := map[int64]time.Duration{}
	for i := range spans {
		switch spans[i].Name {
		case "cluster.peer_serve":
			serve[spans[i].Parent] = spans[i].ID
		case "engine.handle":
			handle[spans[i].Parent] += spans[i].dur()
		}
	}
	var hops, bytesPerHop samples
	for i := range spans {
		sp := &spans[i]
		if sp.Name != "cluster.peer_rt" || sp.Err {
			continue
		}
		hops.add(sp.dur() - handle[serve[sp.ID]])
		bytesPerHop = append(bytesPerHop, float64(sp.N))
	}
	m.timing("cluster.hop_us", "us", hops.median()*1000, hops)
	m.timing("cluster.hop_p99_us", "us", hops.quantile(0.99)*1000, hops)
	m.set("cluster.hop_bytes", "bytes", bytesPerHop.mean())
	render := spanSamples(spans, func(sp *span) bool { return sp.Name == "dataset.render" })
	m.timing("dataset.render_us", "us", render.mean()*1000, render)
	mc := delta(s.reg, s.regBase, "span/core/montecarlo_yield|sum_ns")
	trials := delta(s.reg, s.regBase, "core/montecarlo_yield/trials|counter")
	m.set("crossbar.mc_trial_us", "us", ratio(mc/1000, trials))
	m.set("par.busy_ratio", "ratio", busyRatioDelta(s.reg, s.regBase))
	m.timing("loadgen.late_p99_ms", "ms", s.late.quantile(0.99), s.late)
}
