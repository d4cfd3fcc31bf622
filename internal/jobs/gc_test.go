package jobs

import (
	"context"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"nwdec/internal/code"
	"nwdec/internal/dataset"
	"nwdec/internal/nwerr"
	"nwdec/internal/obs"
	"nwdec/internal/sweep"
)

// gcSpec returns a small distinct job spec per sigma, so GC tests can
// populate a store with several jobs with different ids.
func gcSpec(sigma float64) Spec {
	return Spec{
		Grid: sweep.Grid{
			Types:   []code.Type{code.TypeGray},
			Lengths: []int{4},
			SigmaTs: []float64{sigma},
		},
		Chunk: 1,
	}
}

// touchJob backdates every file of a job's checkpoint directory, which
// is what FSStore.ModTime reads.
func touchJob(t *testing.T, root, id string, mt time.Time) {
	t.Helper()
	dir := filepath.Join(root, id)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if err := os.Chtimes(filepath.Join(dir, e.Name()), mt, mt); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDeleteJob pins the Delete contract: unknown ids are NotFound, a
// running job is refused Invalid-class until canceled, and a terminal
// job disappears from both the runner and the store.
func TestDeleteJob(t *testing.T) {
	fs, err := NewFSStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	gate := &gateStore{
		Store:   fs,
		reached: make(chan struct{}),
		release: make(chan struct{}),
	}
	r := NewRunner(gate, Options{})
	defer r.Close()

	if err := r.Delete("j-nope"); !nwerr.IsNotFound(err) {
		t.Errorf("Delete(unknown) = %v, want NotFound-class", err)
	}

	st, err := r.Submit(context.Background(), testSpec())
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-gate.reached:
	case <-time.After(10 * time.Second):
		t.Fatal("job never reached the gated chunk")
	}
	if err := r.Delete(st.ID); !nwerr.IsInvalid(err) {
		t.Errorf("Delete(running) = %v, want Invalid-class", err)
	}
	close(gate.release)
	if st, err = r.Wait(context.Background(), st.ID); err != nil {
		t.Fatal(err)
	}
	if st.State != StateComplete {
		t.Fatalf("state = %s (%s), want complete", st.State, st.Error)
	}

	if err := r.Delete(st.ID); err != nil {
		t.Fatalf("Delete(terminal) = %v", err)
	}
	if _, err := r.Status(st.ID); !nwerr.IsNotFound(err) {
		t.Errorf("Status after delete = %v, want NotFound-class", err)
	}
	if _, err := fs.GetSpec(st.ID); !nwerr.IsNotFound(err) {
		t.Errorf("store GetSpec after delete = %v, want NotFound-class", err)
	}
	if err := r.Delete(st.ID); !nwerr.IsNotFound(err) {
		t.Errorf("second Delete = %v, want NotFound-class", err)
	}
}

// TestGCNeedsAges pins that GC refuses a store without modification
// times instead of silently collecting nothing.
func TestGCNeedsAges(t *testing.T) {
	r := NewRunner(NewMemoryStore(), Options{})
	defer r.Close()
	if _, err := r.GC(context.Background(), time.Unix(0, 0), time.Hour); !nwerr.IsInvalid(err) {
		t.Errorf("GC over MemoryStore = %v, want Invalid-class", err)
	}
}

// TestGCCollectsOldTerminal pins the age rule: one GC call collects
// exactly the terminal jobs idle longer than maxAge, spares the younger
// one, and reports the collected count to the metrics registry.
func TestGCCollectsOldTerminal(t *testing.T) {
	root := t.TempDir()
	fs, err := NewFSStore(root)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	ages := []time.Duration{3 * time.Hour, 2 * time.Hour, 10 * time.Minute}
	ids := make([]string, len(ages))
	for i, age := range ages {
		st := runToCompletion(t, context.Background(), fs, gcSpec(0.04+float64(i)/100))
		if st.State != StateComplete {
			t.Fatalf("seed job %d: state %s (%s)", i, st.State, st.Error)
		}
		ids[i] = st.ID
		touchJob(t, root, st.ID, now.Add(-age))
	}

	r := NewRunner(fs, Options{})
	defer r.Close()
	reg := obs.New(nil)
	removed, err := r.GC(obs.Into(context.Background(), reg), now, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{ids[0], ids[1]}
	slices.Sort(want)
	if !slices.Equal(removed, want) {
		t.Fatalf("GC removed %v, want exactly the two old jobs %v", removed, want)
	}
	if n := reg.Counter("jobs/gc_collected").Value(); n != 2 {
		t.Errorf("jobs/gc_collected = %d, want 2", n)
	}
	if _, err := fs.GetSpec(ids[2]); err != nil {
		t.Errorf("young job %s collected: %v", ids[2], err)
	}
}

// ageGateStore is gateStore over a concrete *FSStore, so the ModTime
// extension stays visible to GC through the wrapper.
type ageGateStore struct {
	*FSStore
	reached chan struct{}
	release chan struct{}
	puts    int
}

func (g *ageGateStore) PutChunk(id string, idx int, ds *dataset.Dataset) error {
	if g.puts >= 1 {
		select {
		case <-g.reached:
		default:
			close(g.reached)
		}
		<-g.release
	}
	g.puts++
	return g.FSStore.PutChunk(id, idx, ds)
}

// TestGCNeverCollectsRunning pins the safety rule the issue demands: a
// job still running is never collected, no matter how old its files
// look — and the same job is collectable once terminal.
func TestGCNeverCollectsRunning(t *testing.T) {
	root := t.TempDir()
	fs, err := NewFSStore(root)
	if err != nil {
		t.Fatal(err)
	}
	gate := &ageGateStore{
		FSStore: fs,
		reached: make(chan struct{}),
		release: make(chan struct{}),
	}
	r := NewRunner(gate, Options{})
	defer r.Close()
	st, err := r.Submit(context.Background(), testSpec())
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-gate.reached:
	case <-time.After(10 * time.Second):
		t.Fatal("job never reached the gated chunk")
	}

	now := time.Now()
	touchJob(t, root, st.ID, now.Add(-24*time.Hour))
	removed, err := r.GC(context.Background(), now, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 0 {
		t.Fatalf("GC collected %v while the job was running", removed)
	}

	close(gate.release)
	if st, err = r.Wait(context.Background(), st.ID); err != nil {
		t.Fatal(err)
	}
	if st.State != StateComplete {
		t.Fatalf("state = %s (%s), want complete", st.State, st.Error)
	}
	touchJob(t, root, st.ID, now.Add(-24*time.Hour))
	removed, err = r.GC(context.Background(), now, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 1 || removed[0] != st.ID {
		t.Fatalf("GC after completion removed %v, want %s", removed, st.ID)
	}
}
