package jobs

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"nwdec/internal/code"
	"nwdec/internal/core"
	"nwdec/internal/dataset"
	"nwdec/internal/nwerr"
	"nwdec/internal/obs"
	"nwdec/internal/par"
	"nwdec/internal/physics"
	"nwdec/internal/sweep"
)

// testSpec returns a small multi-chunk job: 2 code families × 2 lengths
// × 3 sigmas = 12 valid points, chunk 2 → 6 chunks.
func testSpec() Spec {
	return Spec{
		Grid: sweep.Grid{
			Types:   []code.Type{code.TypeGray, code.TypeHot},
			Lengths: []int{4, 6},
			SigmaTs: []float64{0.04, 0.05, 0.06},
		},
		Chunk: 2,
	}
}

// sweepJSON renders the synchronous sweep dataset the job must reproduce.
func sweepJSON(t *testing.T, spec Spec) []byte {
	t.Helper()
	rows, err := sweep.RunWorkers(context.Background(), spec.Base, spec.Grid, 0)
	if err != nil {
		t.Fatal(err)
	}
	data, err := sweep.Dataset(rows).JSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// runToCompletion submits spec on a fresh runner over store and returns
// the terminal status.
func runToCompletion(t *testing.T, ctx context.Context, store Store, spec Spec) Status {
	t.Helper()
	r := NewRunner(store, Options{})
	defer r.Close()
	st, err := r.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	st, err = r.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestJobMatchesSweep is the determinism golden of the job layer: a job's
// assembled results must serialize byte-identically to the dataset the
// synchronous sweep produces for the same config and grid.
func TestJobMatchesSweep(t *testing.T) {
	spec := testSpec()
	want := sweepJSON(t, spec)

	store := NewMemoryStore()
	r := NewRunner(store, Options{})
	defer r.Close()
	st, err := r.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	st, err = r.Wait(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateComplete {
		t.Fatalf("state = %s (%s), want complete", st.State, st.Error)
	}
	if st.Done != st.Chunks || st.Computed != st.Chunks || st.Resumed != 0 {
		t.Errorf("fresh run: done=%d computed=%d resumed=%d of %d chunks",
			st.Done, st.Computed, st.Resumed, st.Chunks)
	}
	page, err := r.Results(st.ID, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if page.Count != st.Chunks {
		t.Errorf("page.Count = %d, want %d", page.Count, st.Chunks)
	}
	got, err := page.Dataset.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("job dataset differs from synchronous sweep:\njob:   %.200s\nsweep: %.200s", got, want)
	}
}

// TestResultsPaging pins the incremental-read contract: pages concatenate
// to the full dataset, the empty window past the prefix is a nil dataset,
// and a negative offset is Invalid-class.
func TestResultsPaging(t *testing.T) {
	spec := testSpec()
	store := NewMemoryStore()
	st := runToCompletion(t, context.Background(), store, spec)
	r := NewRunner(store, Options{})
	defer r.Close()

	var rows int
	for from := 0; from < st.Chunks; from += 2 {
		page, err := r.Results(st.ID, from, 2)
		if err != nil {
			t.Fatal(err)
		}
		if page.From != from || page.Count == 0 || page.Dataset == nil {
			t.Fatalf("page(%d, 2) = from %d count %d", from, page.From, page.Count)
		}
		rows += len(page.Dataset.Rows)
	}
	if rows != st.Points {
		t.Errorf("paged rows = %d, want %d", rows, st.Points)
	}
	page, err := r.Results(st.ID, st.Chunks, 0)
	if err != nil {
		t.Fatal(err)
	}
	if page.Count != 0 || page.Dataset != nil {
		t.Errorf("past-the-end page has count %d", page.Count)
	}
	if _, err := r.Results(st.ID, -1, 0); !nwerr.IsInvalid(err) {
		t.Errorf("negative offset: err = %v, want Invalid-class", err)
	}
}

// failStore injects a PutChunk failure after a fixed number of
// successful checkpoints, simulating a process dying mid-job with a
// partial (but well-formed) store behind it.
type failStore struct {
	Store
	allowed int
	puts    int
}

func (f *failStore) PutChunk(id string, idx int, ds *dataset.Dataset) error {
	if f.puts >= f.allowed {
		return fmt.Errorf("failstore: injected failure at chunk %d", idx)
	}
	f.puts++
	return f.Store.PutChunk(id, idx, ds)
}

// TestResumeBitIdentical is the kill/resume golden: a job that dies
// mid-run (partial checkpoint prefix in a durable store) and is resumed
// by a fresh runner must finish with the already-checkpointed chunks
// served from the store — not recomputed — and its final dataset must be
// byte-identical to both an uninterrupted run's and the synchronous
// sweep's.
func TestResumeBitIdentical(t *testing.T) {
	spec := testSpec()
	want := sweepJSON(t, spec)
	ctx := context.Background()

	fs, err := NewFSStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	// First process: dies after 2 checkpointed chunks.
	const survived = 2
	broken := NewRunner(&failStore{Store: fs, allowed: survived}, Options{})
	st, err := broken.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	id := st.ID
	st, err = broken.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	broken.Close()
	if st.State != StateFailed {
		t.Fatalf("interrupted run: state = %s, want failed", st.State)
	}

	// The store now reports a suspended job with the surviving prefix.
	probe := NewRunner(fs, Options{})
	st, err = probe.Status(id)
	probe.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateSuspended || st.Done != survived {
		t.Fatalf("store status = %s done=%d, want suspended done=%d", st.State, st.Done, survived)
	}

	// Second process: resumes by id alone and finishes.
	reg := obs.New(nil)
	r2 := NewRunner(fs, Options{})
	defer r2.Close()
	st, err = r2.Resume(obs.Into(ctx, reg), id)
	if err != nil {
		t.Fatal(err)
	}
	st, err = r2.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateComplete {
		t.Fatalf("resumed run: state = %s (%s), want complete", st.State, st.Error)
	}
	if st.Resumed != survived || st.Computed != st.Chunks-survived {
		t.Errorf("resumed run: computed=%d resumed=%d, want %d/%d",
			st.Computed, st.Resumed, st.Chunks-survived, survived)
	}
	if got := reg.Counter("jobs/chunks_resumed").Value(); got != survived {
		t.Errorf("jobs/chunks_resumed = %d, want %d", got, survived)
	}

	page, err := r2.Results(id, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := page.Dataset.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Error("resumed dataset differs from uninterrupted sweep output")
	}

	// Third process: the job is complete, so resume serves every chunk
	// from checkpoints and computes nothing — the zero-recompute
	// property the CI smoke asserts via these same counters.
	reg3 := obs.New(nil)
	r3 := NewRunner(fs, Options{})
	defer r3.Close()
	st, err = r3.Resume(obs.Into(ctx, reg3), id)
	if err != nil {
		t.Fatal(err)
	}
	st, err = r3.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateComplete || st.Computed != 0 || st.Resumed != st.Chunks {
		t.Errorf("re-resume: state=%s computed=%d resumed=%d, want complete 0/%d",
			st.State, st.Computed, st.Resumed, st.Chunks)
	}
	if got := reg3.Counter("jobs/chunks_computed").Value(); got != 0 {
		t.Errorf("jobs/chunks_computed = %d on a complete job, want 0", got)
	}
}

// TestSubmitIdempotent pins content-addressed submission: the same spec
// yields the same id, and resubmitting joins the existing job instead of
// starting another.
func TestSubmitIdempotent(t *testing.T) {
	spec := testSpec()
	if spec.ID() != testSpec().ID() {
		t.Fatal("equal specs derive different ids")
	}
	// Pinned across versions: a fresh process resumes checkpoints by id.
	if id := (Spec{}).ID(); id != "j-4e7a467e754641e0" {
		t.Errorf("zero spec id = %s, want j-4e7a467e754641e0", id)
	}
	other := testSpec()
	other.Chunk = 3
	if spec.ID() == other.ID() {
		t.Error("different chunk sizes must derive different ids: the partition is job identity")
	}

	reg := obs.New(nil)
	ctx := obs.Into(context.Background(), reg)
	r := NewRunner(NewMemoryStore(), Options{})
	defer r.Close()
	st1, err := r.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := r.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st1.ID != st2.ID {
		t.Errorf("resubmit id %s != %s", st2.ID, st1.ID)
	}
	if got := reg.Counter("jobs/submitted").Value(); got != 1 {
		t.Errorf("jobs/submitted = %d after resubmit, want 1", got)
	}
	if _, err := r.Wait(ctx, st1.ID); err != nil {
		t.Fatal(err)
	}
}

// TestJobErrorClasses pins the nwerr classification of the job API:
// unknown ids are NotFound, finished jobs reject Cancel with
// ErrAlreadyComplete (Invalid), and unpersistable specs are Invalid.
func TestJobErrorClasses(t *testing.T) {
	ctx := context.Background()
	r := NewRunner(NewMemoryStore(), Options{})
	defer r.Close()

	if _, err := r.Status("j-nope"); !nwerr.IsNotFound(err) {
		t.Errorf("Status(unknown) = %v, want NotFound-class", err)
	}
	if _, err := r.Resume(ctx, "j-nope"); !nwerr.IsNotFound(err) {
		t.Errorf("Resume(unknown) = %v, want NotFound-class", err)
	}
	if err := r.Cancel("j-nope"); !nwerr.IsNotFound(err) {
		t.Errorf("Cancel(unknown) = %v, want NotFound-class", err)
	}
	if _, err := r.Results("j-nope", 0, 0); !nwerr.IsNotFound(err) {
		t.Errorf("Results(unknown) = %v, want NotFound-class", err)
	}

	st, err := r.Submit(ctx, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Wait(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	err = r.Cancel(st.ID)
	if !errors.Is(err, ErrAlreadyComplete) || !nwerr.IsInvalid(err) {
		t.Errorf("Cancel(complete) = %v, want ErrAlreadyComplete (Invalid-class)", err)
	}

	custom := testSpec()
	custom.Base.Model = physics.DefaultPhysicalModel()
	if _, err := r.Submit(ctx, custom); !nwerr.IsInvalid(err) {
		t.Errorf("Submit(custom model) = %v, want Invalid-class", err)
	}
	if _, err := r.Submit(ctx, Spec{Grid: sweep.Grid{Lengths: []int{3}, Types: []code.Type{code.TypeGray}}}); !nwerr.IsInvalid(err) {
		t.Error("Submit(empty grid) must be Invalid-class")
	}
}

// TestSubmitRejectsGridValues: a grid value no design can be built from
// is refused at submission, before a spec is stored. A zero margin
// factor would otherwise be computed at the default and checkpointed
// under the label 0.
func TestSubmitRejectsGridValues(t *testing.T) {
	store := NewMemoryStore()
	r := NewRunner(store, Options{})
	defer r.Close()
	_, err := r.Submit(context.Background(), Spec{Grid: sweep.Grid{MarginFactors: []float64{0}}})
	if !nwerr.IsInvalid(err) || !strings.Contains(err.Error(), "margin factor") {
		t.Errorf("Submit(margin 0) = %v, want an Invalid-class error naming the margin factor", err)
	}
	if ids, err := store.Jobs(); err != nil || len(ids) != 0 {
		t.Errorf("store jobs after a refused submit = %v, %v; want none", ids, err)
	}
}

// TestSpecRoundTrip pins the persistence identity chain: a spec loaded
// back from the filesystem store derives the same id and key it was
// stored under, which is what lets a fresh process resume by id alone.
func TestSpecRoundTrip(t *testing.T) {
	fs, err := NewFSStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec()
	spec.Base = core.Config{CodeLength: 4, SigmaT: 0.045}
	id := spec.ID()
	if err := fs.PutSpec(id, spec.normalized()); err != nil {
		t.Fatal(err)
	}
	got, err := fs.GetSpec(id)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID() != id {
		t.Errorf("round-tripped spec derives id %s, want %s", got.ID(), id)
	}
	if got.Key() != spec.Key() {
		t.Errorf("round-tripped spec derives key %s, want %s", got.Key(), spec.Key())
	}
	ids, err := fs.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != id {
		t.Errorf("Jobs() = %v, want [%s]", ids, id)
	}
}

// TestRangesPartitionStability pins the checkpoint addressing scheme: the
// chunk partition of a spec is a pure function of (points, chunk), so the
// indices a dead process checkpointed under mean the same thing to the
// process that resumes.
func TestRangesPartitionStability(t *testing.T) {
	spec := testSpec().normalized()
	points := spec.Grid.Points(spec.Base)
	a := par.Ranges(len(points), spec.Chunk)
	b := par.Ranges(len(points), spec.Chunk)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("partition lengths differ: %d vs %d", len(a), len(b))
	}
	covered := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("chunk %d differs: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].Lo != covered {
			t.Fatalf("chunk %d starts at %d, want %d", i, a[i].Lo, covered)
		}
		covered = a[i].Hi
	}
	if covered != len(points) {
		t.Fatalf("partition covers %d of %d points", covered, len(points))
	}
}
