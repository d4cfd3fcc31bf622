package jobs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"nwdec/internal/dataset"
	"nwdec/internal/nwerr"
)

// FSStore is the durable Store: one directory per job holding spec.json,
// one chunk-NNNNN.json checkpoint per completed chunk (the dataset's
// ordinary JSON interchange form) and one lease-NNNNN.json per chunk in
// flight. Every write lands via a temporary file renamed into place, so
// a process killed mid-write never leaves a torn checkpoint — the file
// either exists complete or not at all, which is the property
// kill/resume correctness rests on. A checkpoint damaged by other means
// (disk fault, hand editing) reads back as an ErrCorrupt-wrapped error,
// which the Runner treats as a missing chunk and recomputes.
type FSStore struct {
	root string
}

// NewFSStore opens (creating if needed) a filesystem store rooted at dir.
func NewFSStore(dir string) (*FSStore, error) {
	if dir == "" {
		return nil, nwerr.Invalidf("jobs: filesystem store needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: creating store root: %w", err)
	}
	return &FSStore{root: dir}, nil
}

func (f *FSStore) jobDir(id string) string { return filepath.Join(f.root, id) }

func chunkFile(idx int) string { return fmt.Sprintf("chunk-%05d.json", idx) }

func leaseFile(idx int) string { return fmt.Sprintf("lease-%05d.json", idx) }

// writeAtomic lands data at path via a same-directory temp file and
// rename, the atomicity idiom of POSIX filesystems.
func writeAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(name, path)
	}
	if err != nil {
		if rmErr := os.Remove(name); rmErr != nil && !os.IsNotExist(rmErr) {
			return errors.Join(err, rmErr)
		}
		return err
	}
	return nil
}

// PutSpec persists the spec under <root>/<id>/spec.json; an existing
// spec file is left untouched (specs are content-addressed).
func (f *FSStore) PutSpec(id string, spec Spec) error {
	dir := f.jobDir(id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("jobs: creating job dir: %w", err)
	}
	path := filepath.Join(dir, "spec.json")
	if _, err := os.Stat(path); err == nil {
		return nil
	}
	data, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return fmt.Errorf("jobs: encoding spec: %w", err)
	}
	if err := writeAtomic(path, append(data, '\n')); err != nil {
		return fmt.Errorf("jobs: writing spec: %w", err)
	}
	return nil
}

// GetSpec loads a persisted spec.
func (f *FSStore) GetSpec(id string) (Spec, error) {
	data, err := os.ReadFile(filepath.Join(f.jobDir(id), "spec.json"))
	if os.IsNotExist(err) {
		return Spec{}, nwerr.NotFoundf("jobs: unknown job %q", id)
	}
	if err != nil {
		return Spec{}, fmt.Errorf("jobs: reading spec: %w", err)
	}
	var spec Spec
	if err := json.Unmarshal(data, &spec); err != nil {
		return Spec{}, fmt.Errorf("jobs: decoding spec of %s: %w", id, err)
	}
	return spec, nil
}

// PutChunk checkpoints one chunk dataset as JSON, atomically.
func (f *FSStore) PutChunk(id string, idx int, ds *dataset.Dataset) error {
	var buf bytes.Buffer
	if err := ds.WriteJSON(&buf); err != nil {
		return fmt.Errorf("jobs: encoding chunk %d of %s: %w", idx, id, err)
	}
	path := filepath.Join(f.jobDir(id), chunkFile(idx))
	if err := writeAtomic(path, buf.Bytes()); err != nil {
		return fmt.Errorf("jobs: writing chunk %d of %s: %w", idx, id, err)
	}
	return nil
}

// GetChunk loads one checkpointed chunk dataset.
func (f *FSStore) GetChunk(id string, idx int) (*dataset.Dataset, error) {
	data, err := f.readChunk(id, idx)
	if err != nil {
		return nil, err
	}
	ds, err := dataset.ParseJSON(bytes.NewReader(data))
	if err != nil {
		return nil, corrupted(id, idx, err)
	}
	return ds, nil
}

// CheckChunk validates one checkpoint with dataset.CheckJSON, which
// accepts exactly what GetChunk's ParseJSON accepts without building the
// dataset.
func (f *FSStore) CheckChunk(id string, idx int) error {
	data, err := f.readChunk(id, idx)
	if err != nil {
		return err
	}
	if err := dataset.CheckJSON(data); err != nil {
		return corrupted(id, idx, err)
	}
	return nil
}

// readChunk reads one checkpoint file; a missing file is NotFound-class.
func (f *FSStore) readChunk(id string, idx int) ([]byte, error) {
	data, err := os.ReadFile(filepath.Join(f.jobDir(id), chunkFile(idx)))
	if os.IsNotExist(err) {
		return nil, nwerr.NotFoundf("jobs: job %q has no chunk %d", id, idx)
	}
	if err != nil {
		return nil, fmt.Errorf("jobs: reading chunk %d of %s: %w", idx, id, err)
	}
	return data, nil
}

// corrupted classifies a checkpoint that exists but does not parse. It
// is a damaged checkpoint, not a programming error: wrapping ErrCorrupt
// makes the Runner treat it as missing and recompute the chunk.
func corrupted(id string, idx int, err error) error {
	return fmt.Errorf("jobs: chunk %d of %s: %w: %v", idx, id, ErrCorrupt, err)
}

// Chunks scans the job directory for checkpoint files and returns their
// indices in ascending order. Unparseable names (temp files from a
// killed write) are ignored.
func (f *FSStore) Chunks(id string) ([]int, error) {
	entries, err := os.ReadDir(f.jobDir(id))
	if os.IsNotExist(err) {
		return nil, nwerr.NotFoundf("jobs: unknown job %q", id)
	}
	if err != nil {
		return nil, fmt.Errorf("jobs: scanning job %s: %w", id, err)
	}
	var idxs []int
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "chunk-") || !strings.HasSuffix(name, ".json") {
			continue
		}
		idx, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "chunk-"), ".json"))
		if err != nil {
			continue
		}
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	return idxs, nil
}

// Delete removes the job's directory — spec, chunks and leases.
func (f *FSStore) Delete(id string) error {
	dir := f.jobDir(id)
	if _, err := os.Stat(filepath.Join(dir, "spec.json")); os.IsNotExist(err) {
		return nwerr.NotFoundf("jobs: unknown job %q", id)
	} else if err != nil {
		return fmt.Errorf("jobs: probing job %s: %w", id, err)
	}
	if err := os.RemoveAll(dir); err != nil {
		return fmt.Errorf("jobs: deleting job %s: %w", id, err)
	}
	return nil
}

// leaseRecord is the JSON body of a lease file.
type leaseRecord struct {
	Node string `json:"node"`
}

// PutLease records the node computing chunk idx, atomically.
func (f *FSStore) PutLease(id string, idx int, node string) error {
	data, err := json.Marshal(leaseRecord{Node: node})
	if err != nil {
		return fmt.Errorf("jobs: encoding lease %d of %s: %w", idx, id, err)
	}
	path := filepath.Join(f.jobDir(id), leaseFile(idx))
	if err := writeAtomic(path, append(data, '\n')); err != nil {
		return fmt.Errorf("jobs: writing lease %d of %s: %w", idx, id, err)
	}
	return nil
}

// DeleteLease removes the lease of chunk idx; absent leases are a no-op.
func (f *FSStore) DeleteLease(id string, idx int) error {
	err := os.Remove(filepath.Join(f.jobDir(id), leaseFile(idx)))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("jobs: deleting lease %d of %s: %w", idx, id, err)
	}
	return nil
}

// Leases scans the job directory for lease files and returns index →
// node. Unreadable or unparsable lease files are skipped — a lease is
// advisory state, never worth failing a job over.
func (f *FSStore) Leases(id string) (map[int]string, error) {
	entries, err := os.ReadDir(f.jobDir(id))
	if os.IsNotExist(err) {
		return nil, nwerr.NotFoundf("jobs: unknown job %q", id)
	}
	if err != nil {
		return nil, fmt.Errorf("jobs: scanning job %s: %w", id, err)
	}
	out := make(map[int]string)
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "lease-") || !strings.HasSuffix(name, ".json") {
			continue
		}
		idx, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "lease-"), ".json"))
		if err != nil {
			continue
		}
		data, err := os.ReadFile(filepath.Join(f.jobDir(id), name))
		if err != nil {
			continue
		}
		var rec leaseRecord
		if err := json.Unmarshal(data, &rec); err != nil {
			continue
		}
		out[idx] = rec.Node
	}
	return out, nil
}

// ModTime returns the newest modification time among the job's files —
// the last moment the job's persisted state changed, which is what GC
// ages against.
func (f *FSStore) ModTime(id string) (time.Time, error) {
	dir := f.jobDir(id)
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return time.Time{}, nwerr.NotFoundf("jobs: unknown job %q", id)
	}
	if err != nil {
		return time.Time{}, fmt.Errorf("jobs: scanning job %s: %w", id, err)
	}
	var newest time.Time
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			continue
		}
		if mt := info.ModTime(); mt.After(newest) {
			newest = mt
		}
	}
	if newest.IsZero() {
		return time.Time{}, nwerr.NotFoundf("jobs: job %q has no files", id)
	}
	return newest, nil
}

// Jobs lists the ids of every job directory holding a spec, sorted.
func (f *FSStore) Jobs() ([]string, error) {
	entries, err := os.ReadDir(f.root)
	if err != nil {
		return nil, fmt.Errorf("jobs: scanning store: %w", err)
	}
	var ids []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if _, err := os.Stat(filepath.Join(f.root, e.Name(), "spec.json")); err == nil {
			ids = append(ids, e.Name())
		}
	}
	sort.Strings(ids)
	return ids, nil
}
