package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"nwdec/internal/cluster"
	"nwdec/internal/code"
	"nwdec/internal/dataset"
	"nwdec/internal/engine"
	"nwdec/internal/jobs"
	"nwdec/internal/sweep"
)

// runMainEnv, when set to 1, makes the test binary run nwserve's main()
// on its own arguments instead of the tests, so TestBinary can start the
// real server as a child process without a separate build.
const runMainEnv = "NWSERVE_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBinary is the real-process check of the listener and the graceful
// shutdown: the server runs as a child process on an ephemeral loopback
// port with a disk job store. It serves one experiment (a fresh server's
// miss), runs a one-point-per-chunk job through submit, poll and
// results, deletes the job (204, then 404), and on SIGTERM announces the
// shutdown and exits 0.
func TestBinary(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	// The deadline also bounds the server: past it the process is killed,
	// so a hung shutdown fails the test instead of stalling it.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-addr", "127.0.0.1:0", "-job-store", t.TempDir())
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Reap the server on every exit path; after a clean exit both calls
	// only report that the process is already gone.
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
		}
	})
	lines := bufio.NewScanner(stderr)
	var log strings.Builder
	base := ""
	for base == "" && lines.Scan() {
		fmt.Fprintln(&log, lines.Text())
		if addr, ok := strings.CutPrefix(lines.Text(), "nwserve: listening on "); ok {
			base = addr
		}
	}
	if base == "" {
		t.Fatalf("server never reported its listen address:\n%s", log.String())
	}

	name, cache, err := fetchExperiment(ctx, base, "fig5")
	if err != nil {
		t.Fatal(err)
	}
	if name != "fig5" || cache != "miss" {
		t.Errorf("dataset %q with X-Cache %q, want fig5 with miss", name, cache)
	}

	// code.Type serializes as its enum int (1 = Gray code).
	st, data, err := runJob(ctx, base, `{"grid":{"Types":[1],"Lengths":[4],"SigmaTs":[0.05]},"chunk":1}`)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Name string  `json:"name"`
		Rows [][]any `json:"rows"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("results body: %v", err)
	}
	if doc.Name != "sweep" || len(doc.Rows) == 0 {
		t.Errorf("results dataset %q with %d rows, want a non-empty sweep", doc.Name, len(doc.Rows))
	}
	for _, want := range []int{http.StatusNoContent, http.StatusNotFound} {
		del, err := http.NewRequestWithContext(ctx, http.MethodDelete, base+"/v1/jobs/"+st.ID, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(del)
		if err != nil {
			t.Fatal(err)
		}
		if err := resp.Body.Close(); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != want {
			t.Errorf("DELETE /v1/jobs/%s: status %d, want %d", st.ID, resp.StatusCode, want)
		}
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for lines.Scan() {
		fmt.Fprintln(&log, lines.Text())
	}
	if err := cmd.Wait(); err != nil {
		t.Errorf("server exit after SIGTERM: %v\n%s", err, log.String())
	}
	if !strings.Contains(log.String(), "nwserve: shutting down\n") {
		t.Errorf("server did not announce the shutdown:\n%s", log.String())
	}
}

// computeCount reads an engine's compute-layer request counter.
func computeCount(eng *engine.Engine) int64 {
	for _, st := range eng.BackendStats() {
		if st.Name == "compute" {
			return st.Requests
		}
	}
	return -1
}

// TestPeerSmoke is the clustered self-check: two cross-peered nodes,
// wired as main wires a peered node, serve each other over POST /peer/.
// The same experiment fetched twice through the node that does not own
// its key is computed on the owner (miss-peer), then served from the
// owner's cache (hit-peer). A small job submitted through that node then
// spreads its chunks over both engines and assembles byte-identical to a
// single-node sweep.
func TestPeerSmoke(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	ids := []string{"a", "b"}
	hs := make(map[string]*httptest.Server, len(ids))
	urls := make(map[string]string, len(ids))
	for _, id := range ids {
		hs[id] = httptest.NewUnstartedServer(nil)
		urls[id] = "http://" + hs[id].Listener.Addr().String()
	}
	nodes := make(map[string]*server, len(ids))
	for i, id := range ids {
		eng, err := engine.New(engine.Options{Shed: true})
		if err != nil {
			t.Fatal(err)
		}
		peer := ids[1-i]
		srv, err := newServer(eng, jobs.NewMemoryStore(), id, map[string]string{peer: urls[peer]}, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.runner.Close()
		nodes[id] = srv
		hs[id].Config.Handler = srv.mux()
		hs[id].Start()
		defer hs[id].Close()
	}

	// Ask the node that does not own the key, so the request must cross
	// the peer protocol. Both rings are built from the same membership,
	// so both nodes agree on the owner.
	req := engine.Request{Kind: engine.KindExperiment, Experiment: "fig5"}
	owner := nodes["a"].backend.(*cluster.PeerBackend).Ring().Owner(req.Key())
	asker := "a"
	if owner == "a" {
		asker = "b"
	}
	for _, want := range []string{"miss-peer", "hit-peer"} {
		name, cache, err := fetchExperiment(ctx, urls[asker], "fig5")
		if err != nil {
			t.Fatal(err)
		}
		if name != "fig5" || cache != want {
			t.Errorf("dataset %q with X-Cache %q, want fig5 with %q", name, cache, want)
		}
	}

	grid := sweep.Grid{
		Types:   []code.Type{code.TypeGray, code.TypeHot},
		Lengths: []int{4, 6},
		SigmaTs: []float64{0.04, 0.05, 0.06},
	}
	spec, err := json.Marshal(jobs.Spec{Grid: grid, Chunk: 1})
	if err != nil {
		t.Fatal(err)
	}
	before := map[string]int64{}
	for id, n := range nodes {
		before[id] = computeCount(n.eng)
	}
	st, got, err := runJob(ctx, urls[asker], string(spec))
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for id, n := range nodes {
		c := computeCount(n.eng) - before[id]
		if c == 0 {
			t.Errorf("node %s computed no chunk of the job", id)
		}
		total += c
	}
	if total != int64(st.Chunks) {
		t.Errorf("fleet computed %d chunks, want exactly %d", total, st.Chunks)
	}

	single, err := engine.New(engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := single.Do(ctx, engine.Request{Kind: engine.KindSweep, Grid: grid})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := resp.Dataset.Render(&want, dataset.FormatJSON); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Error("peered job results differ from a single-node sweep")
	}
}

// TestQueryRejectsOutOfRange: a query value the request cannot honour is
// a 400 before any computation — a negative wire or bit count, which
// would otherwise be dropped for the default, a non-finite number, a
// negative trial count, or a sweep axis value that would be computed at
// the default and labelled with the value given.
func TestQueryRejectsOutOfRange(t *testing.T) {
	eng, err := engine.New(engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newServer(eng, jobs.NewMemoryStore(), "", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.runner.Close()
	mux := srv.mux()
	for _, target := range []string{
		"/v1/design?wires=-3",
		"/v1/design?rawbits=-5",
		"/v1/design?sigma=NaN",
		"/v1/optimize?margin=Inf",
		"/v1/experiment/fig5?trials=-5",
		// Scaled by 50 or 15, such a count would wrap.
		"/v1/experiment/noise?trials=4611686018427387904",
		"/v1/experiment/readout?trials=4611686018427387904",
		"/v1/sweep?sigmas=0.05,Inf",
		"/v1/sweep?margins=0",
	} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400: %s", target, rec.Code, rec.Body)
		}
	}
	if c := computeCount(eng); c != 0 {
		t.Errorf("compute layer ran %d requests, want 0", c)
	}
}

// recordBackend is an engine.Backend that records the last request it
// was handed and computes nothing: it answers an empty dataset.
type recordBackend struct {
	calls int
	last  engine.Request
}

func (b *recordBackend) Handle(_ context.Context, req engine.Request) (*engine.Response, error) {
	b.calls++
	b.last = req
	return &engine.Response{Dataset: dataset.New("stub", "stub"), Key: req.Key()}, nil
}

func (b *recordBackend) Stats() engine.BackendStats { return engine.BackendStats{Name: "record"} }

// FuzzServeQuery fuzzes the query parsing of every GET route that builds
// an engine request. A query is either refused with 400 before the
// backend sees it, or accepted with 200; an accepted request must cross
// the peer wire and come back under the same key, because a peered node
// forwards exactly what it parsed.
func FuzzServeQuery(f *testing.F) {
	for _, seed := range []string{"sigma=NaN", "wires=-3", "sigmas=0.05,Inf", "types=tc,gc&lengths=4,6"} {
		f.Add(seed)
	}
	routes := []string{"/v1/design", "/v1/optimize", "/v1/montecarlo", "/v1/sweep", "/v1/codes", "/v1/experiment/fig5"}
	f.Fuzz(func(t *testing.T, query string) {
		stub := &recordBackend{}
		mux := (&server{backend: stub}).mux()
		for _, route := range routes {
			r := httptest.NewRequest(http.MethodGet, route, nil)
			r.URL.RawQuery = query
			rec := httptest.NewRecorder()
			before := stub.calls
			mux.ServeHTTP(rec, r)
			switch rec.Code {
			case http.StatusBadRequest:
				if stub.calls != before {
					t.Fatalf("GET %s?%s: 400 for a request the backend accepted", route, query)
				}
			case http.StatusOK:
				if stub.calls != before+1 {
					t.Fatalf("GET %s?%s: 200 without reaching the backend", route, query)
				}
				data, err := stub.last.MarshalWire()
				if err != nil {
					t.Fatalf("GET %s?%s: accepted request has no wire form: %v", route, query, err)
				}
				back, err := engine.UnmarshalWire(data)
				if err != nil {
					t.Fatalf("GET %s?%s: wire form does not decode: %v\n%s", route, query, err, data)
				}
				if back.Key() != stub.last.Key() {
					t.Fatalf("GET %s?%s: key changed across the wire: %s -> %s", route, query, stub.last.Key(), back.Key())
				}
			default:
				t.Fatalf("GET %s?%s: status %d, want 200 or 400: %s", route, query, rec.Code, rec.Body)
			}
		}
	})
}

// runJob submits a jobs.Spec JSON body through POST /v1/jobs, polls the
// job's status until it leaves the running state, and returns the final
// status with the GET /results body of the complete job.
func runJob(ctx context.Context, base, body string) (jobs.Status, []byte, error) {
	var st jobs.Status
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/jobs", strings.NewReader(body))
	if err != nil {
		return st, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return st, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return st, nil, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return st, nil, fmt.Errorf("POST /v1/jobs: status %d: %s", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &st); err != nil {
		return st, nil, fmt.Errorf("job status body: %w", err)
	}
	for st.State == jobs.StateRunning {
		time.Sleep(20 * time.Millisecond)
		get, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+st.ID, nil)
		if err != nil {
			return st, nil, err
		}
		resp, err := http.DefaultClient.Do(get)
		if err != nil {
			return st, nil, err
		}
		data, err := io.ReadAll(resp.Body)
		if cerr := resp.Body.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return st, nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return st, nil, fmt.Errorf("GET /v1/jobs/%s: status %d: %s", st.ID, resp.StatusCode, data)
		}
		if err := json.Unmarshal(data, &st); err != nil {
			return st, nil, fmt.Errorf("job status body: %w", err)
		}
	}
	if st.State != jobs.StateComplete {
		return st, nil, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	get, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+st.ID+"/results", nil)
	if err != nil {
		return st, nil, err
	}
	resp, err = http.DefaultClient.Do(get)
	if err != nil {
		return st, nil, err
	}
	data, err = io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return st, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return st, nil, fmt.Errorf("GET /v1/jobs/%s/results: status %d: %s", st.ID, resp.StatusCode, data)
	}
	if got := resp.Header.Get("X-Job-State"); got != string(jobs.StateComplete) {
		return st, nil, fmt.Errorf("results X-Job-State %q, want complete", got)
	}
	return st, data, nil
}

// fetchExperiment GETs /v1/experiment/{name} from a node and returns the
// dataset name from the body and the X-Cache header.
func fetchExperiment(ctx context.Context, base, experiment string) (name, cache string, err error) {
	rctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, base+"/v1/experiment/"+experiment, nil)
	if err != nil {
		return "", "", err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return "", "", err
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", "", fmt.Errorf("GET %s/v1/experiment/%s: status %d: %s", base, experiment, resp.StatusCode, body)
	}
	var doc struct {
		Name string `json:"name"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return "", "", fmt.Errorf("response is not dataset JSON: %w", err)
	}
	return doc.Name, resp.Header.Get("X-Cache"), nil
}
