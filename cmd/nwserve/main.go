// Command nwserve is the HTTP JSON facade of the decoder pipeline: a
// minimal stdlib net/http server that exposes the internal/engine serving
// layer — designs, optimization, Monte-Carlo yield, experiments, sweeps
// and code listings — with the engine's result cache, singleflight
// deduplication and admission control shared across all clients of the
// process.
//
// Usage:
//
//	nwserve [-addr HOST:PORT] [-cache-entries N] [-cache-cost C]
//	        [-inflight N] [-shed] [-node-id ID] [-peers ID=URL,...]
//	        [-job-store DIR] [-job-gc D] [-workers W] [-timeout D]
//	        [-metrics text|json|csv|md] [-metrics-out FILE] [-pprof DIR]
//
// Endpoints (JSON):
//
//	GET  /healthz                 liveness probe
//	GET  /v1/experiments          experiment name list
//	GET  /v1/experiment/{name}    one experiment dataset (?seed=&trials=)
//	GET  /v1/design               one design (?type=&base=&length=&sigma=&margin=&wires=&rawbits=)
//	GET  /v1/optimize             best design (?objective=area|yield|phi + design params)
//	GET  /v1/montecarlo           empirical yield (?trials=&seed= + design params)
//	GET  /v1/sweep                grid sweep (?types=&lengths=&sigmas=&margins=&wires=)
//	GET  /v1/codes                word listing (?type=&base=&length=&count=)
//	POST /v1/jobs                 submit an async grid job (body: jobs.Spec JSON) → 202 + status
//	GET  /v1/jobs/{id}            job status
//	GET  /v1/jobs/{id}/results    checkpointed output so far (?from=&max= chunks)
//	DELETE /v1/jobs/{id}          remove a terminal job and its checkpoints → 204
//
// Synchronous responses carry X-Cache (hit, miss, or hit-peer/miss-peer
// when a cluster peer served the result) and X-Request-Key headers. Job
// responses carry X-Job-State (and, on results, X-Job-Chunks: the chunk
// count included in the body) so pollers can follow progress without
// parsing bodies; /results streams the contiguous checkpointed prefix
// incrementally and serves partial output for running jobs. With
// -job-store the job layer checkpoints to disk and a restarted server
// resumes submitted specs without recomputing finished chunks; without
// it jobs are in-memory only. Errors map from the internal/nwerr
// taxonomy through nwerr.HTTPStatus: Invalid is 400, Canceled is 408,
// Overload is 503 with a Retry-After hint, NotFound (unknown
// experiments, unknown job ids) is 404, Internal is 500. With -shed (the
// default) a saturated engine rejects new work with 503 instead of
// queueing it, and recovers as soon as in-flight work drains — no
// restart needed.
//
// Multi-node serving: -peers names the other nodes of a fleet
// ("b=http://host2:8607,c=http://host3:8607") and -node-id this node's
// own ring identity. Every node then routes each request key to its
// owner on a shared consistent-hash ring (POST /peer/, an internal
// route), so the fleet computes and caches each key once; a dead peer
// degrades that key to local computation, never to an error. See
// internal/cluster.
//
// Jobs compute through the same backend: each chunk of a submitted job
// is a sweep request over the chunk's slice of the grid, so a peered
// node routes it to its key's ring owner over POST /peer/ like any other
// request, with local compute as the fallback for any peer failure — the
// submitting node still owns every checkpoint, so results stay
// byte-identical to a single-node run. -job-gc AGE collects terminal
// jobs whose store state has not changed for AGE (it needs -job-store);
// DELETE /v1/jobs/{id} removes one terminal job on demand. See
// internal/jobs and DESIGN §15.
//
// The server shuts down gracefully when its context is cancelled: on
// SIGINT/SIGTERM or when -timeout elapses.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"nwdec/internal/cli"
	"nwdec/internal/cluster"
	"nwdec/internal/code"
	"nwdec/internal/core"
	"nwdec/internal/dataset"
	"nwdec/internal/engine"
	"nwdec/internal/jobs"
	"nwdec/internal/nwerr"
	"nwdec/internal/sweep"
)

func main() {
	var (
		addr         = flag.String("addr", "localhost:8607", "listen address")
		cacheEntries = flag.Int("cache-entries", 0, "result-cache entry cap (0 = engine default)")
		cacheCost    = flag.Int64("cache-cost", 0, "result-cache total cost cap in cells (0 = engine default)")
		inflight     = flag.Int("inflight", 0, "max concurrently computing requests (0 = GOMAXPROCS)")
		shed         = flag.Bool("shed", true, "reject work with 503 when admission is saturated instead of queueing")
		nodeID       = flag.String("node-id", "", "this node's ring identity (required with -peers)")
		peersFlag    = flag.String("peers", "", "other fleet nodes as ID=URL,ID=URL (enables cluster routing)")
		jobStore     = flag.String("job-store", "", "checkpoint directory for async jobs (empty = in-memory, no kill/restart durability)")
		jobGC        = flag.Duration("job-gc", 0, "collect terminal jobs untouched for this long (0 = never; needs -job-store)")
	)
	c := cli.Register("nwserve", "json")
	flag.Parse()
	ctx, cancel := c.Context()
	defer cancel()
	defer c.Close()
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	eng, err := engine.New(engine.Options{
		MaxEntries:  *cacheEntries,
		MaxCost:     *cacheCost,
		MaxInFlight: *inflight,
		Shed:        *shed,
	})
	if err != nil {
		c.Exit(err)
	}
	var peers map[string]string
	if *peersFlag != "" {
		if peers, err = cli.Peers(*peersFlag); err != nil {
			c.Exit(err)
		}
	}
	var store jobs.Store
	if *jobStore != "" {
		if store, err = jobs.NewFSStore(*jobStore); err != nil {
			c.Exit(err)
		}
	} else {
		store = jobs.NewMemoryStore()
	}
	srv, err := newServer(eng, store, *nodeID, peers, c.Workers)
	if err != nil {
		c.Exit(err)
	}
	defer srv.runner.Close()
	if pb, ok := srv.backend.(*cluster.PeerBackend); ok {
		fmt.Fprintf(os.Stderr, "nwserve: cluster node %q, ring %v\n", *nodeID, pb.Ring().Nodes())
	}
	if *jobGC > 0 {
		if *jobStore == "" {
			c.Exit(nwerr.Invalidf("-job-gc needs -job-store (an in-memory store records no ages)"))
		}
		go gcLoop(ctx, srv.runner, *jobGC)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		c.Exit(err)
	}
	hs := &http.Server{
		Handler:     srv.mux(),
		ReadTimeout: 30 * time.Second,
		BaseContext: func(net.Listener) context.Context { return ctx },
	}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "nwserve: listening on http://%s\n", ln.Addr())

	select {
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "nwserve: shutting down")
		if err := shutdown(hs, served); err != nil {
			c.Exit(err)
		}
	case err := <-served:
		if err != nil && err != http.ErrServerClosed {
			c.Exit(err)
		}
	}
}

// gcLoop periodically collects terminal jobs older than maxAge from the
// runner's store, until ctx is done. The sweep interval is a quarter of
// the age bound (floored at a second) so a job is collected within ~25%
// of its eligibility.
func gcLoop(ctx context.Context, runner *jobs.Runner, maxAge time.Duration) {
	interval := maxAge / 4
	if interval < time.Second {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			removed, err := runner.GC(ctx, time.Now(), maxAge)
			if err != nil {
				fmt.Fprintf(os.Stderr, "nwserve: job gc: %v\n", err)
				continue
			}
			if len(removed) > 0 {
				fmt.Fprintf(os.Stderr, "nwserve: job gc collected %d job(s)\n", len(removed))
			}
		}
	}
}

// shutdown drains in-flight requests with a bounded grace period and
// collects the Serve goroutine's exit.
func shutdown(hs *http.Server, served chan error) error {
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		return err
	}
	if err := <-served; err != nil && err != http.ErrServerClosed {
		return err
	}
	return nil
}

// server holds the shared engine behind the HTTP handlers. Public
// handlers submit through backend — the cluster routing layer when
// -peers is configured, the engine itself otherwise. The /peer/ route
// always serves from eng directly, so a request arriving from a peer
// computes here instead of bouncing around the ring.
type server struct {
	eng     *engine.Engine
	backend engine.Backend
	runner  *jobs.Runner
	workers int
}

// newServer wires one node: the cluster routing layer over eng when peers
// are given (self is then the node's ring identity), and a job runner
// over store whose chunks go through the same backend as every
// synchronous request, so a peered node spreads them over the fleet.
func newServer(eng *engine.Engine, store jobs.Store, self string, peers map[string]string, workers int) (*server, error) {
	s := &server{eng: eng, backend: eng, workers: workers}
	if peers != nil {
		pb, err := cluster.NewPeerBackend(eng, cluster.Options{Self: self, Peers: peers})
		if err != nil {
			return nil, err
		}
		s.backend = pb
	}
	if self == "" {
		self = "local"
	}
	s.runner = jobs.NewRunner(store, jobs.Options{
		Workers:  workers,
		Executor: &jobs.EngineExecutor{Backend: s.backend, Workers: workers},
		Node:     self,
	})
	return s, nil
}

// mux wires the routes using Go 1.22 method+path patterns.
func (s *server) mux() *http.ServeMux {
	m := http.NewServeMux()
	m.Handle("POST "+cluster.PeerPath, cluster.PeerHandler(s.eng))
	m.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if _, err := fmt.Fprintln(w, `{"status":"ok"}`); err != nil {
			fmt.Fprintf(os.Stderr, "nwserve: %v\n", err)
		}
	})
	m.HandleFunc("GET /v1/experiments", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(engine.ExperimentNames()); err != nil {
			fmt.Fprintf(os.Stderr, "nwserve: %v\n", err)
		}
	})
	m.HandleFunc("GET /v1/experiment/{name}", s.handle(func(r *http.Request) (engine.Request, error) {
		// An unknown name flows through engine validation, which
		// classifies it NotFound → 404.
		req := engine.Request{Kind: engine.KindExperiment, Experiment: r.PathValue("name")}
		var err error
		if req.Seed, err = queryUint(r, "seed", 0); err != nil {
			return req, err
		}
		if req.Trials, err = queryInt(r, "trials", 0); err != nil {
			return req, err
		}
		return req, nil
	}))
	m.HandleFunc("GET /v1/design", s.handle(func(r *http.Request) (engine.Request, error) {
		cfg, err := queryConfig(r)
		return engine.Request{Kind: engine.KindDesign, Config: cfg}, err
	}))
	m.HandleFunc("GET /v1/optimize", s.handle(func(r *http.Request) (engine.Request, error) {
		cfg, err := queryConfig(r)
		if err != nil {
			return engine.Request{}, err
		}
		obj, err := core.ParseObjective(r.URL.Query().Get("objective"))
		return engine.Request{Kind: engine.KindOptimize, Config: cfg, Objective: obj}, err
	}))
	m.HandleFunc("GET /v1/montecarlo", s.handle(func(r *http.Request) (engine.Request, error) {
		cfg, err := queryConfig(r)
		if err != nil {
			return engine.Request{}, err
		}
		req := engine.Request{Kind: engine.KindMonteCarlo, Config: cfg}
		if req.Trials, err = queryInt(r, "trials", 4); err != nil {
			return req, err
		}
		if req.Seed, err = queryUint(r, "seed", 2009); err != nil {
			return req, err
		}
		return req, nil
	}))
	m.HandleFunc("GET /v1/sweep", s.handle(func(r *http.Request) (engine.Request, error) {
		q := r.URL.Query()
		var (
			grid sweep.Grid
			err  error
		)
		if grid.Types, err = cli.Types(q.Get("types")); err != nil {
			return engine.Request{}, err
		}
		if grid.Lengths, err = cli.Ints(q.Get("lengths")); err != nil {
			return engine.Request{}, err
		}
		if grid.SigmaTs, err = cli.Floats(q.Get("sigmas")); err != nil {
			return engine.Request{}, err
		}
		if grid.MarginFactors, err = cli.Floats(q.Get("margins")); err != nil {
			return engine.Request{}, err
		}
		if grid.HalfCaveWires, err = cli.Ints(q.Get("wires")); err != nil {
			return engine.Request{}, err
		}
		return engine.Request{Kind: engine.KindSweep, Grid: grid}, nil
	}))
	m.HandleFunc("GET /v1/codes", s.handle(func(r *http.Request) (engine.Request, error) {
		cfg, err := queryConfig(r)
		if err != nil {
			return engine.Request{}, err
		}
		req := engine.Request{Kind: engine.KindCodes, Config: cfg}
		if req.Count, err = queryInt(r, "count", 0); err != nil {
			return req, err
		}
		return req, nil
	}))
	m.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	m.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	m.HandleFunc("GET /v1/jobs/{id}/results", s.handleJobResults)
	m.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobDelete)
	return m
}

// handleJobDelete removes a terminal job and its checkpoints. A running
// job answers 400 (cancel it first), an unknown id 404, success 204.
func (s *server) handleJobDelete(w http.ResponseWriter, r *http.Request) {
	if err := s.runner.Delete(r.PathValue("id")); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleJobSubmit accepts a jobs.Spec body, submits (or joins — the id
// is content-addressed, so resubmission is idempotent) and answers 202
// with the job status. A restarted server resubmitting a spec whose
// store already holds checkpoints resumes it automatically.
func (s *server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var spec jobs.Spec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		writeError(w, nwerr.Invalidf("jobs: decoding spec: %w", err))
		return
	}
	st, err := s.runner.Submit(r.Context(), spec)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJobStatus(w, st, http.StatusAccepted)
}

// handleJobStatus answers the job's live (or store-derived) status.
func (s *server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.runner.Status(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJobStatus(w, st, http.StatusOK)
}

// handleJobResults serves the checkpointed output of a job: the dataset
// assembled from up to max chunks (?max=, 0 = all) starting at chunk
// ?from=. Running jobs serve their partial prefix — pollers page with
// from = chunks-already-fetched to stream increments — and X-Job-State /
// X-Job-Chunks carry progress without body parsing. An empty window is
// 204 No Content.
func (s *server) handleJobResults(w http.ResponseWriter, r *http.Request) {
	from, err := queryInt(r, "from", 0)
	if err != nil {
		writeError(w, err)
		return
	}
	max, err := queryInt(r, "max", 0)
	if err != nil {
		writeError(w, err)
		return
	}
	page, err := s.runner.Results(r.PathValue("id"), from, max)
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("X-Job-State", string(page.Status.State))
	w.Header().Set("X-Job-Chunks", strconv.Itoa(page.Count))
	if page.Dataset == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := page.Dataset.Render(w, dataset.FormatJSON); err != nil {
		fmt.Fprintf(os.Stderr, "nwserve: %v\n", err)
	}
}

// writeJobStatus renders one job status as JSON with the X-Job-State
// header.
func writeJobStatus(w http.ResponseWriter, st jobs.Status, code int) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Job-State", string(st.State))
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(st); err != nil {
		fmt.Fprintf(os.Stderr, "nwserve: %v\n", err)
	}
}

// handle adapts a request parser into an HTTP handler: parse, submit to
// the serving backend with the server's worker bound, map the error
// class to a status, render the dataset as JSON.
func (s *server) handle(parse func(*http.Request) (engine.Request, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		req, err := parse(r)
		if err != nil {
			writeError(w, err)
			return
		}
		req.Workers = s.workers
		resp, err := s.backend.Handle(r.Context(), req)
		if err != nil {
			writeError(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Request-Key", resp.Key)
		w.Header().Set("X-Cache", cacheStatus(resp))
		if err := resp.Dataset.Render(w, dataset.FormatJSON); err != nil {
			fmt.Fprintf(os.Stderr, "nwserve: %v\n", err)
		}
	}
}

// cacheStatus renders the response provenance for the X-Cache header:
// hit/miss for locally served requests, hit-peer/miss-peer when the
// key's owning node served it over the cluster protocol (the hit/miss
// verdict is then the owner's).
func cacheStatus(resp *engine.Response) string {
	status := "miss"
	if resp.CacheHit {
		status = "hit"
	}
	if resp.Peer {
		status += "-peer"
	}
	return status
}

// writeError renders the nwerr class as an HTTP status (via
// nwerr.HTTPStatus: Invalid 400, Canceled 408, Overload 503, NotFound
// 404, Internal 500) and a JSON body. A 503 carries Retry-After so
// well-behaved clients back off instead of hammering a saturated server.
func writeError(w http.ResponseWriter, err error) {
	status := nwerr.HTTPStatus(err)
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(map[string]string{
		"error": err.Error(),
		"class": nwerr.ClassOf(err).String(),
	}); err != nil {
		fmt.Fprintf(os.Stderr, "nwserve: %v\n", err)
	}
}

// queryConfig assembles a core.Config from the shared design parameters.
func queryConfig(r *http.Request) (core.Config, error) {
	q := r.URL.Query()
	var cfg core.Config
	if t := q.Get("type"); t != "" {
		tp, err := code.ParseType(t)
		if err != nil {
			return cfg, err
		}
		cfg.CodeType = tp
	}
	var err error
	if cfg.Base, err = queryInt(r, "base", 0); err != nil {
		return cfg, err
	}
	if cfg.CodeLength, err = queryInt(r, "length", 0); err != nil {
		return cfg, err
	}
	if cfg.SigmaT, err = queryFloat(r, "sigma", 0); err != nil {
		return cfg, err
	}
	if cfg.MarginFactor, err = queryFloat(r, "margin", 0); err != nil {
		return cfg, err
	}
	wires, err := queryInt(r, "wires", 0)
	if err != nil {
		return cfg, err
	}
	rawBits, err := queryInt(r, "rawbits", 0)
	if err != nil {
		return cfg, err
	}
	cfg.Spec, err = cli.Spec(wires, rawBits)
	return cfg, err
}

func queryInt(r *http.Request, name string, def int) (int, error) {
	s := r.URL.Query().Get(name)
	if s == "" {
		return def, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, nwerr.Invalidf("query %s: invalid integer %q", name, s)
	}
	return v, nil
}

func queryUint(r *http.Request, name string, def uint64) (uint64, error) {
	s := r.URL.Query().Get(name)
	if s == "" {
		return def, nil
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, nwerr.Invalidf("query %s: invalid unsigned integer %q", name, s)
	}
	return v, nil
}

func queryFloat(r *http.Request, name string, def float64) (float64, error) {
	s := r.URL.Query().Get(name)
	if s == "" {
		return def, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, nwerr.Invalidf("query %s: invalid number %q", name, s)
	}
	return v, nil
}
