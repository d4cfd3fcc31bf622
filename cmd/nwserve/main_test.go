package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"nwdec/internal/cluster"
	"nwdec/internal/code"
	"nwdec/internal/dataset"
	"nwdec/internal/engine"
	"nwdec/internal/jobs"
	"nwdec/internal/sweep"
)

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
