package jobs

import (
	"sort"
	"sync"
	"time"

	"nwdec/internal/dataset"
	"nwdec/internal/nwerr"
)

// Store is the checkpoint persistence interface of the job layer,
// mirroring the Backend pattern of the engine: the Runner executes
// against any Store, and resume works across processes exactly when the
// store outlives them (FSStore does, MemoryStore does not — it exists
// for tests and for callers that only want asynchrony, not durability).
//
// All methods are safe for concurrent use. Absent ids and chunks are
// NotFound-class errors; a checkpoint miss is ordinary control flow in
// the Runner, which branches on nwerr.IsNotFound.
type Store interface {
	// PutSpec persists the spec under its id. Re-putting an existing id
	// is a no-op: specs are immutable and content-addressed, so the
	// first write is as good as any.
	PutSpec(id string, spec Spec) error
	// GetSpec loads a persisted spec.
	GetSpec(id string) (Spec, error)
	// PutChunk checkpoints one completed chunk dataset under (id, idx),
	// where idx indexes the deterministic partition of the job's points.
	PutChunk(id string, idx int, ds *dataset.Dataset) error
	// GetChunk loads one checkpointed chunk dataset. The returned
	// dataset is the caller's own copy.
	GetChunk(id string, idx int) (*dataset.Dataset, error)
	// Chunks returns the checkpointed chunk indices of a job in
	// ascending order (empty, not an error, for a job with a spec and no
	// chunks yet).
	Chunks(id string) ([]int, error)
	// Jobs lists the persisted job ids in sorted order.
	Jobs() ([]string, error)
	// Delete removes a job — spec, chunks and leases — from the store.
	// An unknown id is a NotFound-class error.
	Delete(id string) error
	// PutLease records that node is computing chunk idx of the job. A
	// lease is advisory liveness state, not identity: the runner writes
	// it before computing a chunk and deletes it after checkpointing, so
	// a lease that outlives its writer marks a chunk a dead node left
	// in flight — re-eligible for any resuming runner, never stuck.
	PutLease(id string, idx int, node string) error
	// DeleteLease removes the lease of chunk idx. Deleting an absent
	// lease is a no-op, not an error.
	DeleteLease(id string, idx int) error
	// Leases returns the live leases of a job as index → node (empty,
	// not an error, for a job with none). An unknown id is
	// NotFound-class.
	Leases(id string) (map[int]string, error)
}

// AgeStore is the optional Store extension job GC needs: the wall-clock
// time a job's state last changed. FSStore implements it from file
// modification times; MemoryStore deliberately does not — the job layer
// is a deterministic package that never reads the clock itself, so age
// only exists where the filesystem already records it, and GC's caller
// injects "now" (cmd/nwserve passes time.Now()).
type AgeStore interface {
	// ModTime returns the newest modification time among the job's
	// files. An unknown id is a NotFound-class error.
	ModTime(id string) (time.Time, error)
}

// CheckStore is the optional Store extension the resume probe uses: it
// validates a checkpoint without building its dataset. The runner only
// needs to learn that a chunk exists and is intact before it skips the
// chunk; the dataset itself is built when Results pages it. A store
// without the extension is probed with GetChunk, whose dataset is then
// dropped.
type CheckStore interface {
	// CheckChunk returns nil, a NotFound-class error or an
	// ErrCorrupt-wrapped error, in exactly the cases where GetChunk
	// returns a dataset, a NotFound-class error or an ErrCorrupt-wrapped
	// error.
	CheckChunk(id string, idx int) error
}

// MemoryStore is the in-process Store: checkpoints live exactly as long
// as the process, so it provides asynchrony and incremental results but
// not kill/restart durability.
type MemoryStore struct {
	mu     sync.Mutex
	specs  map[string]Spec
	chunks map[string]map[int]*dataset.Dataset
	leases map[string]map[int]string
}

// NewMemoryStore creates an empty in-memory store.
func NewMemoryStore() *MemoryStore {
	return &MemoryStore{
		specs:  make(map[string]Spec),
		chunks: make(map[string]map[int]*dataset.Dataset),
		leases: make(map[string]map[int]string),
	}
}

// PutSpec persists the spec; re-putting an existing id is a no-op.
func (m *MemoryStore) PutSpec(id string, spec Spec) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.specs[id]; !ok {
		m.specs[id] = spec
	}
	return nil
}

// GetSpec loads a persisted spec.
func (m *MemoryStore) GetSpec(id string) (Spec, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	spec, ok := m.specs[id]
	if !ok {
		return Spec{}, nwerr.NotFoundf("jobs: unknown job %q", id)
	}
	return spec, nil
}

// PutChunk checkpoints one chunk. The dataset is cloned on the way in so
// later caller mutations never reach the store.
func (m *MemoryStore) PutChunk(id string, idx int, ds *dataset.Dataset) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.chunks[id]
	if !ok {
		c = make(map[int]*dataset.Dataset)
		m.chunks[id] = c
	}
	c[idx] = ds.Clone()
	return nil
}

// GetChunk loads one checkpointed chunk as a private clone.
func (m *MemoryStore) GetChunk(id string, idx int) (*dataset.Dataset, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ds, ok := m.chunks[id][idx]
	if !ok {
		return nil, nwerr.NotFoundf("jobs: job %q has no chunk %d", id, idx)
	}
	return ds.Clone(), nil
}

// CheckChunk reports whether the chunk is checkpointed, without the clone
// GetChunk makes.
func (m *MemoryStore) CheckChunk(id string, idx int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.chunks[id][idx]; !ok {
		return nwerr.NotFoundf("jobs: job %q has no chunk %d", id, idx)
	}
	return nil
}

// Chunks returns the checkpointed chunk indices in ascending order.
func (m *MemoryStore) Chunks(id string) ([]int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.specs[id]; !ok {
		return nil, nwerr.NotFoundf("jobs: unknown job %q", id)
	}
	idxs := make([]int, 0, len(m.chunks[id]))
	for idx := range m.chunks[id] {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	return idxs, nil
}

// Jobs lists the persisted job ids in sorted order.
func (m *MemoryStore) Jobs() ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ids := make([]string, 0, len(m.specs))
	for id := range m.specs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids, nil
}

// Delete removes the job's spec, chunks and leases.
func (m *MemoryStore) Delete(id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.specs[id]; !ok {
		return nwerr.NotFoundf("jobs: unknown job %q", id)
	}
	delete(m.specs, id)
	delete(m.chunks, id)
	delete(m.leases, id)
	return nil
}

// PutLease records the node computing chunk idx.
func (m *MemoryStore) PutLease(id string, idx int, node string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	l, ok := m.leases[id]
	if !ok {
		l = make(map[int]string)
		m.leases[id] = l
	}
	l[idx] = node
	return nil
}

// DeleteLease removes the lease of chunk idx; absent leases are a no-op.
func (m *MemoryStore) DeleteLease(id string, idx int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.leases[id], idx)
	return nil
}

// Leases returns the live leases of the job as a private copy.
func (m *MemoryStore) Leases(id string) (map[int]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.specs[id]; !ok {
		return nil, nwerr.NotFoundf("jobs: unknown job %q", id)
	}
	out := make(map[int]string, len(m.leases[id]))
	for idx, node := range m.leases[id] {
		out[idx] = node
	}
	return out, nil
}
