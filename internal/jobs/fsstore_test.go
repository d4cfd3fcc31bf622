package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"nwdec/internal/core"
	"nwdec/internal/dataset"
	"nwdec/internal/nwerr"
	"nwdec/internal/obs"
	"nwdec/internal/sweep"
)

// corruptChunk overwrites a checkpoint file with bytes that cannot parse
// as a dataset — the shape a torn write or disk fault leaves behind.
func corruptChunk(t *testing.T, root, id string, idx int, data []byte) {
	t.Helper()
	path := filepath.Join(root, id, fmt.Sprintf("chunk-%05d.json", idx))
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestGetChunkCorrupt pins the store-level classification: an
// unparsable checkpoint file is ErrCorrupt (distinguishable from
// NotFound), for both garbage and truncated-JSON shapes.
func TestGetChunkCorrupt(t *testing.T) {
	root := t.TempDir()
	fs, err := NewFSStore(root)
	if err != nil {
		t.Fatal(err)
	}
	st := runToCompletion(t, context.Background(), fs, testSpec())
	if st.State != StateComplete {
		t.Fatalf("seed job: state %s (%s)", st.State, st.Error)
	}

	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"garbage", []byte("not json at all")},
		{"truncated", []byte(`{"name":"sweep","rows":[{"co`)},
		{"empty", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			corruptChunk(t, root, st.ID, 1, tc.data)
			_, err := fs.GetChunk(st.ID, 1)
			if !errors.Is(err, ErrCorrupt) {
				t.Errorf("GetChunk over %s file = %v, want ErrCorrupt", tc.name, err)
			}
			if nwerr.IsNotFound(err) {
				t.Error("corruption must not read as NotFound: callers treat the classes differently")
			}
		})
	}
	if _, err := fs.GetChunk(st.ID, 99); !nwerr.IsNotFound(err) {
		t.Errorf("GetChunk(missing) = %v, want NotFound-class", err)
	}
}

// TestResumeRecomputesCorruptChunk pins the runner-level recovery the
// issue demands: a resume over a damaged checkpoint treats the chunk as
// missing — recompute, overwrite, count it — instead of failing the job,
// and the final dataset is byte-identical to an undamaged run.
func TestResumeRecomputesCorruptChunk(t *testing.T) {
	spec := testSpec()
	want := sweepJSON(t, spec)
	root := t.TempDir()
	fs, err := NewFSStore(root)
	if err != nil {
		t.Fatal(err)
	}
	st := runToCompletion(t, context.Background(), fs, spec)
	if st.State != StateComplete {
		t.Fatalf("seed job: state %s (%s)", st.State, st.Error)
	}
	corruptChunk(t, root, st.ID, 2, []byte("{torn"))

	reg := obs.New(nil)
	r := NewRunner(fs, Options{})
	defer r.Close()
	if _, err = r.Resume(obs.Into(context.Background(), reg), st.ID); err != nil {
		t.Fatal(err)
	}
	st, err = r.Wait(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateComplete {
		t.Fatalf("resume over corrupt chunk: state = %s (%s), want complete", st.State, st.Error)
	}
	if st.Computed != 1 || st.Resumed != st.Chunks-1 {
		t.Errorf("computed=%d resumed=%d, want exactly the corrupt chunk recomputed (1/%d)",
			st.Computed, st.Resumed, st.Chunks-1)
	}
	if n := reg.Counter("jobs/chunks_corrupt").Value(); n != 1 {
		t.Errorf("jobs/chunks_corrupt = %d, want 1", n)
	}

	// The recompute overwrote the damaged file: a second read is clean.
	if _, err := fs.GetChunk(st.ID, 2); err != nil {
		t.Errorf("chunk after recovery: %v", err)
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
		t.Error("recovered dataset differs from undamaged sweep output")
	}
}

// getCounter exposes only Store's methods of the store it wraps, as a
// decorator written against Store does, and counts GetChunk calls.
type getCounter struct {
	Store
	gets int
}

func (g *getCounter) GetChunk(id string, idx int) (*dataset.Dataset, error) {
	g.gets++
	return g.Store.GetChunk(id, idx)
}

// TestResumeProbeFallback: over a store without CheckChunk the resume
// probe loads each chunk with GetChunk instead, and resume keeps its
// contract: a complete job resumes computing nothing, a torn chunk is
// recomputed, and the output stays byte-identical.
func TestResumeProbeFallback(t *testing.T) {
	spec := testSpec()
	want := sweepJSON(t, spec)
	root := t.TempDir()
	fs, err := NewFSStore(root)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	seed := runToCompletion(t, ctx, fs, spec)
	for _, tc := range []struct {
		name     string
		computed int
	}{
		{"complete", 0},
		{"torn", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.computed > 0 {
				corruptChunk(t, root, seed.ID, 3, []byte(`{"name":"sweep","rows":[[`))
			}
			store := &getCounter{Store: fs}
			if _, ok := Store(store).(CheckStore); ok {
				t.Fatal("the wrapper must hide CheckChunk")
			}
			r := NewRunner(store, Options{})
			defer r.Close()
			st, err := r.Resume(ctx, seed.ID)
			if err == nil {
				st, err = r.Wait(ctx, st.ID)
			}
			if err != nil {
				t.Fatal(err)
			}
			if st.State != StateComplete || st.Computed != tc.computed || st.Resumed != st.Chunks-tc.computed {
				t.Errorf("resume ended %s, computed %d and resumed %d of %d chunks, want %d computed",
					st.State, st.Computed, st.Resumed, st.Chunks, tc.computed)
			}
			if store.gets != st.Chunks {
				t.Errorf("the probe made %d GetChunk calls, want one per chunk (%d)", store.gets, st.Chunks)
			}
			page, err := r.Results(st.ID, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			got, err := page.Dataset.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Error("resumed dataset differs from the sweep output")
			}
		})
	}
}

// TestMemoryStoreCheckChunk: the in-memory probe answers as GetChunk
// does, nil for a checkpointed chunk and NotFound-class otherwise.
func TestMemoryStoreCheckChunk(t *testing.T) {
	m := NewMemoryStore()
	st := runToCompletion(t, context.Background(), m, testSpec())
	for _, idx := range []int{0, st.Chunks - 1, st.Chunks} {
		_, gerr := m.GetChunk(st.ID, idx)
		cerr := m.CheckChunk(st.ID, idx)
		if chunkOutcome(cerr) != chunkOutcome(gerr) || (gerr != nil && cerr.Error() != gerr.Error()) {
			t.Errorf("chunk %d: CheckChunk = %v, GetChunk = %v", idx, cerr, gerr)
		}
	}
	if err := m.CheckChunk("j-unknown", 0); !nwerr.IsNotFound(err) {
		t.Errorf("CheckChunk of an unknown job = %v, want NotFound-class", err)
	}
}

// chunkOutcome is the class of a chunk read the runner's probe branches
// on.
func chunkOutcome(err error) string {
	switch {
	case err == nil:
		return "nil"
	case nwerr.IsNotFound(err):
		return "NotFound"
	case errors.Is(err, ErrCorrupt):
		return "ErrCorrupt"
	}
	return "other"
}

// TestResumeRejectsMismatchedSpec: a spec.json that derives another job
// id (here overwritten with {}, which derives the default grid's id) is
// ErrCorrupt to Resume and Status, and nothing is submitted in its place.
func TestResumeRejectsMismatchedSpec(t *testing.T) {
	root := t.TempDir()
	fs, err := NewFSStore(root)
	if err != nil {
		t.Fatal(err)
	}
	st := runToCompletion(t, context.Background(), fs, testSpec())
	if err := os.WriteFile(filepath.Join(root, st.ID, "spec.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	other := Spec{}.ID()
	r := NewRunner(fs, Options{})
	defer r.Close()
	if _, err := r.Resume(context.Background(), st.ID); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Resume over a mismatched spec = %v, want ErrCorrupt", err)
	}
	if _, err := r.Status(st.ID); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Status over a mismatched spec = %v, want ErrCorrupt", err)
	}
	if _, err := r.Status(other); !nwerr.IsNotFound(err) {
		t.Errorf("Status(%s) = %v, want NotFound: the spec's own job was submitted", other, err)
	}
	if ids, err := fs.Jobs(); err != nil || !reflect.DeepEqual(ids, []string{st.ID}) {
		t.Errorf("store jobs = %v (%v), want only %s", ids, err, st.ID)
	}
}

// TestLeases pins the lease table on both stores: put/list/delete round
// trip, absent deletes are no-ops, and unknown jobs are NotFound.
func TestLeases(t *testing.T) {
	fs, err := NewFSStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		store Store
	}{
		{"fs", fs},
		{"memory", NewMemoryStore()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.store
			if _, err := s.Leases("j-nope"); !nwerr.IsNotFound(err) {
				t.Errorf("Leases(unknown) = %v, want NotFound-class", err)
			}
			spec := testSpec()
			id := spec.ID()
			if err := s.PutSpec(id, spec); err != nil {
				t.Fatal(err)
			}
			if err := s.PutLease(id, 0, "a"); err != nil {
				t.Fatal(err)
			}
			if err := s.PutLease(id, 3, "b"); err != nil {
				t.Fatal(err)
			}
			leases, err := s.Leases(id)
			if err != nil {
				t.Fatal(err)
			}
			if len(leases) != 2 || leases[0] != "a" || leases[3] != "b" {
				t.Errorf("leases = %v, want {0:a 3:b}", leases)
			}
			if err := s.DeleteLease(id, 0); err != nil {
				t.Fatal(err)
			}
			if err := s.DeleteLease(id, 0); err != nil {
				t.Errorf("second DeleteLease = %v, want no-op nil", err)
			}
			if leases, err = s.Leases(id); err != nil || len(leases) != 1 {
				t.Errorf("leases after delete = %v (%v), want {3:b}", leases, err)
			}
		})
	}
}

// TestStaleLeaseReclaimed pins the dead-node story: a lease left behind
// without its checkpoint (the holder died mid-chunk) makes the chunk
// re-eligible — the resuming runner counts the reclaim, recomputes the
// chunk, and clears the lease.
func TestStaleLeaseReclaimed(t *testing.T) {
	spec := testSpec()
	fs, err := NewFSStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	// Die after two checkpoints, as in TestResumeBitIdentical, then
	// plant the dead node's lease on the first unfinished chunk.
	const survived = 2
	broken := NewRunner(&failStore{Store: fs, allowed: survived}, Options{})
	st, err := broken.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err = broken.Wait(context.Background(), st.ID); err != nil {
		t.Fatal(err)
	}
	broken.Close()
	if err := fs.PutLease(st.ID, survived, "dead-node"); err != nil {
		t.Fatal(err)
	}

	reg := obs.New(nil)
	r := NewRunner(fs, Options{Node: "a"})
	defer r.Close()
	if _, err = r.Resume(obs.Into(context.Background(), reg), st.ID); err != nil {
		t.Fatal(err)
	}
	st, err = r.Wait(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateComplete {
		t.Fatalf("state = %s (%s), want complete", st.State, st.Error)
	}
	if n := reg.Counter("jobs/leases_reclaimed").Value(); n != 1 {
		t.Errorf("jobs/leases_reclaimed = %d, want 1", n)
	}
	leases, err := fs.Leases(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(leases) != 0 {
		t.Errorf("leases after completion = %v, want none", leases)
	}
}

// FuzzSpecJSON fuzzes the spec decoder a resume starts from. Each input
// is the spec.json of a job in a filesystem store: GetSpec must return a
// spec or an error, never panic, and a spec it returns must survive
// PutSpec/GetSpec in a fresh store under the same ID, because resume finds
// a job's checkpoints by that ID.
func FuzzSpecJSON(f *testing.F) {
	seed, err := json.MarshalIndent(testSpec(), "", "  ")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"base":{"Model":{}}}`))
	f.Add([]byte(`{"base":{"SigmaT":-0,"CodeType":99},"grid":{"Types":[],"SigmaTs":[1e308]},"chunk":-5}`))
	// Two stores serve every input, as in FuzzChunkJSON: each input
	// overwrites the same spec file in the first, and the decoded job is
	// removed from the second before PutSpec, so the round trip always
	// starts from a store that holds no such job.
	const id = "j-fuzz"
	fs, err := NewFSStore(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(fs.jobDir(id), "spec.json")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		f.Fatal(err)
	}
	fresh, err := NewFSStore(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		spec, err := fs.GetSpec(id)
		if err != nil {
			if !reflect.DeepEqual(spec, Spec{}) {
				t.Fatalf("GetSpec returned both an error and a spec: %v, %+v", err, spec)
			}
			return
		}
		if err := os.RemoveAll(fresh.jobDir(spec.ID())); err != nil {
			t.Fatal(err)
		}
		if err := fresh.PutSpec(spec.ID(), spec); err != nil {
			t.Fatalf("decoded spec does not persist: %v\n%s", err, data)
		}
		back, err := fresh.GetSpec(spec.ID())
		if err != nil {
			t.Fatalf("persisted spec does not load: %v\n%s", err, data)
		}
		if back.ID() != spec.ID() {
			t.Fatalf("round trip moved the job from %s to %s\n%s", spec.ID(), back.ID(), data)
		}
	})
}

// FuzzChunkJSON fuzzes checkpoint decoding at the store. Each input is
// the chunk-00000.json of a job in a filesystem store: GetChunk returns a
// dataset or an ErrCorrupt-wrapped error that is not NotFound-class,
// never both, and never panics. An accepted chunk written back with
// PutChunk reads back as an equal dataset, and its file is a fixed point
// of the write/read cycle.
func FuzzChunkJSON(f *testing.F) {
	rows, err := sweep.EvalPoints(context.Background(), 1, testSpec().Grid.Points(core.Config{})[:2])
	if err != nil {
		f.Fatal(err)
	}
	seed, err := sweep.Dataset(rows).JSON()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"name":"sweep","columns":[{"name":"n","kind":"int"}],"rows":[[1],[-0]]}`))
	f.Add([]byte(`{"name":"sweep","rows":[{"co`))
	f.Add([]byte(`not json`))
	f.Add([]byte{})
	// One store serves every input: each overwrites the same chunk file.
	const id = "j-fuzz"
	fs, err := NewFSStore(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(fs.jobDir(id), chunkFile(0))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ds, err := fs.GetChunk(id, 0)
		if cerr := fs.CheckChunk(id, 0); chunkOutcome(cerr) != chunkOutcome(err) || (err != nil && cerr.Error() != err.Error()) {
			t.Fatalf("CheckChunk = %v, GetChunk = %v\n%q", cerr, err, data)
		}
		if err != nil {
			if ds != nil {
				t.Fatalf("GetChunk returned both a dataset and %v", err)
			}
			if !errors.Is(err, ErrCorrupt) || nwerr.IsNotFound(err) {
				t.Fatalf("GetChunk error %v is not ErrCorrupt-only", err)
			}
			return
		}
		if err := fs.PutChunk(id, 0, ds); err != nil {
			t.Fatalf("accepted chunk does not persist: %v\n%q", err, data)
		}
		first, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		back, err := fs.GetChunk(id, 0)
		if err != nil {
			t.Fatalf("rewritten chunk does not load: %v\n%s", err, first)
		}
		if !reflect.DeepEqual(back, ds) {
			t.Fatalf("rewritten chunk reads back as %+v, want %+v", back, ds)
		}
		if err := fs.PutChunk(id, 0, back); err != nil {
			t.Fatal(err)
		}
		second, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("chunk file is not a fixed point:\n%s\nvs\n%s", first, second)
		}
	})
}
