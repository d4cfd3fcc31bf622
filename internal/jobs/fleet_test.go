package jobs

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"nwdec/internal/cluster"
	"nwdec/internal/code"
	"nwdec/internal/engine"
	"nwdec/internal/obs"
	"nwdec/internal/sweep"
)

// fleetSpec is a 24-chunk job (one point per chunk) — enough keys that a
// three-node ring deterministically lands several chunks on every node.
func fleetSpec() Spec {
	return Spec{
		Grid: sweep.Grid{
			Types:   []code.Type{code.TypeGray, code.TypeHot},
			Lengths: []int{4, 6},
			SigmaTs: []float64{0.04, 0.045, 0.05, 0.055, 0.06, 0.065},
		},
		Chunk: 1,
	}
}

// peerServer starts an httptest node serving the peer protocol over its
// own engine, instrumented with its own obs registry so tests can count
// the chunks it computed (engine/computes).
func peerServer(t *testing.T) (*httptest.Server, *obs.Registry) {
	t.Helper()
	eng, err := engine.New(engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New(nil)
	h := cluster.PeerHandler(eng)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r.WithContext(obs.Into(r.Context(), reg)))
	}))
	return srv, reg
}

// fleetExecutor builds ring node "a": an engine executor over a peer
// backend routing to peers, with a fresh local engine as the fallback.
func fleetExecutor(t *testing.T, peers map[string]string) (*EngineExecutor, *cluster.PeerBackend) {
	t.Helper()
	eng, err := engine.New(engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pb, err := cluster.NewPeerBackend(eng, cluster.Options{Self: "a", Peers: peers})
	if err != nil {
		t.Fatal(err)
	}
	return &EngineExecutor{Backend: pb}, pb
}

// TestFleetDistributesChunks is the acceptance test of the distributed
// executor: a three-node in-process fleet (submitting node a plus chunk
// servers b and c) completes a job with every node computing at least one
// chunk, the per-node compute counters accounting for every chunk exactly
// once, and the assembled dataset byte-identical to a single-node run.
func TestFleetDistributesChunks(t *testing.T) {
	spec := fleetSpec()
	want := sweepJSON(t, spec)
	srvB, regB := peerServer(t)
	defer srvB.Close()
	srvC, regC := peerServer(t)
	defer srvC.Close()

	exec, _ := fleetExecutor(t, map[string]string{"b": srvB.URL, "c": srvC.URL})
	r := NewRunner(NewMemoryStore(), Options{Executor: exec, Node: "a"})
	defer r.Close()

	regA := obs.New(nil)
	ctx := obs.Into(context.Background(), regA)
	st, err := r.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	st, err = r.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateComplete {
		t.Fatalf("state = %s (%s), want complete", st.State, st.Error)
	}

	a := regA.Counter("jobs/chunks_computed").Value()
	b := regB.Counter("engine/computes").Value()
	c := regC.Counter("engine/computes").Value()
	if a == 0 || b == 0 || c == 0 {
		t.Errorf("chunks computed per node = a:%d b:%d c:%d, want every node > 0", a, b, c)
	}
	if total := a + b + c; total != int64(st.Chunks) {
		t.Errorf("fleet computed %d chunks total, want exactly %d (each chunk computed once)", total, st.Chunks)
	}
	if served := regA.Counter("cluster/peer/served").Value(); served != b+c {
		t.Errorf("cluster/peer/served = %d, want %d (sum of peer computes)", served, b+c)
	}
	if n := regA.Counter("cluster/peer/fallback_local").Value(); n != 0 {
		t.Errorf("cluster/peer/fallback_local = %d, want 0 on a healthy fleet", n)
	}

	page, err := r.Results(st.ID, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := page.Dataset.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Error("distributed dataset differs from single-node sweep output")
	}
}

// TestFleetDeadNodeFailsOver kills one chunk server mid-job and requires
// the job to complete anyway: chunks owned by the dead node are
// re-executed on the submitting node via the local fallback, and the
// assembled dataset is still byte-identical to a single-node run.
func TestFleetDeadNodeFailsOver(t *testing.T) {
	spec := fleetSpec()
	want := sweepJSON(t, spec)
	srvB, regB := peerServer(t)
	defer srvB.Close()
	srvC, regC := peerServer(t)
	defer srvC.Close()

	exec, _ := fleetExecutor(t, map[string]string{"b": srvB.URL, "c": srvC.URL})
	r := NewRunner(NewMemoryStore(), Options{Executor: exec, Node: "a"})
	defer r.Close()

	regA := obs.New(nil)
	ctx := obs.Into(context.Background(), regA)
	st, err := r.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Kill node c as soon as it has served one chunk: in-flight requests
	// are severed, and every later chunk it owns must fail over.
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		for regC.Counter("engine/computes").Value() == 0 {
			select {
			case <-r.ctx.Done():
				return
			case <-time.After(time.Millisecond):
			}
		}
		srvC.CloseClientConnections()
		srvC.Close()
	}()

	st, err = r.Wait(ctx, st.ID)
	<-killed
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateComplete {
		t.Fatalf("state = %s (%s), want complete despite the dead node", st.State, st.Error)
	}
	if n := regA.Counter("cluster/peer/fallback_local").Value(); n == 0 {
		t.Error("cluster/peer/fallback_local = 0, want > 0 (dead node's chunks re-executed locally)")
	}
	a := regA.Counter("jobs/chunks_computed").Value()
	b := regB.Counter("engine/computes").Value()
	c := regC.Counter("engine/computes").Value()
	if a+b+c < int64(st.Chunks) {
		t.Errorf("fleet computed %d chunks across nodes, want at least %d", a+b+c, st.Chunks)
	}

	page, err := r.Results(st.ID, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := page.Dataset.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Error("failed-over dataset differs from single-node sweep output")
	}
}
