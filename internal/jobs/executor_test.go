package jobs

import (
	"context"
	"testing"

	"nwdec/internal/nwerr"
	"nwdec/internal/obs"
	"nwdec/internal/par"
	"nwdec/internal/sweep"
)

// chunkOf derives chunk idx of the spec the way the runner does.
func chunkOf(t *testing.T, spec Spec, idx int) Chunk {
	t.Helper()
	spec = spec.normalized()
	points := spec.Grid.Points(spec.Base)
	ranges := par.Ranges(len(points), spec.Chunk)
	if idx < 0 || idx >= len(ranges) {
		t.Fatalf("chunk %d outside %d-chunk partition", idx, len(ranges))
	}
	rg := ranges[idx]
	return Chunk{Index: idx, Points: points[rg.Lo:rg.Hi]}
}

// localJSON evaluates one chunk through a fresh LocalExecutor and
// returns its dataset JSON — the reference every other layer must match.
func localJSON(t *testing.T, spec Spec, idx int) []byte {
	t.Helper()
	exec := &LocalExecutor{}
	ds, err := exec.Execute(context.Background(), spec, chunkOf(t, spec, idx))
	if err != nil {
		t.Fatal(err)
	}
	data, err := ds.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestLocalExecutor pins the base layer: the chunk dataset matches a
// direct sweep evaluation of the same points, the chunks_computed
// counter tallies at the computing site, and stats record the call.
func TestLocalExecutor(t *testing.T) {
	spec := testSpec()
	chunk := chunkOf(t, spec, 0)
	reg := obs.New(nil)
	exec := &LocalExecutor{}
	ds, err := exec.Execute(obs.Into(context.Background(), reg), spec, chunk)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := sweep.EvalPoints(context.Background(), 0, chunk.Points)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sweep.Dataset(rows).JSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ds.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Error("local executor dataset differs from direct evaluation")
	}
	if n := reg.Counter("jobs/chunks_computed").Value(); n != 1 {
		t.Errorf("jobs/chunks_computed = %d, want 1", n)
	}
	st := exec.Stats()
	if st.Name != "local" || st.Chunks != 1 || st.Served != 1 || st.Errors != 0 {
		t.Errorf("stats = %+v, want local 1/1/0", st)
	}
}

// TestEngineExecutorRoutes pins the engine executor over a two-node
// fleet: every chunk of the spec comes back byte-identical to a
// LocalExecutor evaluation whether the peer or this node computed it, and
// jobs/chunks_computed counts exactly the chunks that were not
// peer-served.
func TestEngineExecutorRoutes(t *testing.T) {
	spec := fleetSpec()
	srvB, regB := peerServer(t)
	defer srvB.Close()
	exec, pb := fleetExecutor(t, map[string]string{"b": srvB.URL})
	reg := obs.New(nil)
	ctx := obs.Into(context.Background(), reg)

	n := len(spec.Grid.Points(spec.Base))
	for i := 0; i < n; i++ {
		ds, err := exec.Execute(ctx, spec, chunkOf(t, spec, i))
		if err != nil {
			t.Fatal(err)
		}
		got, err := ds.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(localJSON(t, spec, i)) {
			t.Errorf("chunk %d differs from local evaluation", i)
		}
	}
	peer := regB.Counter("engine/computes").Value()
	local := reg.Counter("jobs/chunks_computed").Value()
	if peer == 0 || local == 0 {
		t.Errorf("chunks computed: peer %d, local %d; want both > 0", peer, local)
	}
	if ps := pb.Stats(); ps.Served != peer || local+peer != int64(n) {
		t.Errorf("peer-served %d, peer computed %d, local %d; want peer-served = peer computed and %d in all",
			ps.Served, peer, local, n)
	}
	// A chunk past the end of the partition is an Invalid-class failure
	// of that chunk, not a fallback.
	if _, err := exec.Execute(ctx, spec, Chunk{Index: n, Points: make([]sweep.Point, 1)}); !nwerr.IsInvalid(err) {
		t.Errorf("chunk past the grid: err = %v, want Invalid-class", err)
	}
	st := exec.Stats()
	if st.Name != "engine" || st.Chunks != int64(n+1) || st.Served != int64(n) || st.Errors != 1 {
		t.Errorf("stats = %+v, want engine %d/%d/1", st, n+1, n)
	}
}
