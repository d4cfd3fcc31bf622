package stats

import "sync"

// substreamCheckpointStride is the distance between cached rewind points of
// a Substreams source: backward random access costs at most this many jump
// applications, and the memory overhead is one 32-byte state per stride
// substreams.
const substreamCheckpointStride = 64

// Substreams is a lazy, thread-safe view of the jump substreams of a base
// generator: At(i) is bit-identical to base.Split(i) and Block(lo, n) to
// base.Streams(...)[lo:lo+n], but nothing is materialized up front — a
// million-trial request no longer allocates a million generators before the
// first trial runs. Callers materialize exactly the block they are about to
// consume (typically one scheduling chunk of package par).
//
// The source advances a cursor one jump at a time and records a checkpoint
// state every substreamCheckpointStride substreams, so sequential and
// near-sequential access (the chunked scheduling pattern: ascending blocks,
// slightly out of order across workers) costs O(1) amortized jumps per
// substream, and a fully random access costs at most one stride of jumps
// from the nearest checkpoint. All methods are safe for concurrent use; the
// returned generators are fresh, unshared and a pure function of (base
// state, index), so results stay deterministic at every worker count.
type Substreams struct {
	mu   sync.Mutex
	cur  [4]uint64 // state after `next` jump applications of the base state
	next uint64
	// checkpoints[k] is the base state after k*substreamCheckpointStride
	// jumps; checkpoints[0] is the base state itself.
	checkpoints [][4]uint64
}

// Substreams returns a lazy substream source over r's current state. r is
// not mutated and may continue to be used; the source snapshots the state.
func (r *RNG) Substreams() *Substreams {
	return &Substreams{cur: r.s, next: 0, checkpoints: [][4]uint64{r.s}}
}

// advanceTo moves the cursor to exactly `jumps` jump applications of the
// base state. Callers must hold s.mu.
func (s *Substreams) advanceTo(jumps uint64) {
	if jumps < s.next {
		// Rewind to the nearest recorded checkpoint at or below the target;
		// checkpoints exist for every stride multiple the cursor has ever
		// crossed, so this lookup never misses.
		k := jumps / substreamCheckpointStride
		s.cur = s.checkpoints[k]
		s.next = k * substreamCheckpointStride
	}
	r := RNG{s: s.cur}
	for s.next < jumps {
		r.Jump()
		s.next++
		if s.next%substreamCheckpointStride == 0 && s.next/substreamCheckpointStride == uint64(len(s.checkpoints)) {
			s.checkpoints = append(s.checkpoints, r.s)
		}
	}
	s.cur = r.s
}

// At returns the i-th substream: a fresh generator whose stream is
// bit-identical to base.Split(i). Each substream starts 2^128 steps after
// the previous one, so shards drawing fewer than 2^128 values are disjoint.
func (s *Substreams) At(i uint64) *RNG {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advanceTo(i + 1)
	return &RNG{s: s.cur}
}

// Block materializes the n substreams lo, lo+1, ..., lo+n-1 in one pass —
// the per-chunk fan-out of the Monte-Carlo drivers. The result is
// bit-identical to base.Streams(lo+n)[lo:] and costs O(n) jumps after the
// cursor reaches lo. The generators share one backing array, so a block
// of any size is two allocations.
func (s *Substreams) Block(lo uint64, n int) []*RNG {
	if n <= 0 {
		return nil
	}
	out := make([]*RNG, n)
	gens := make([]RNG, n)
	s.mu.Lock()
	defer s.mu.Unlock()
	for k := range out {
		s.advanceTo(lo + uint64(k) + 1)
		gens[k] = RNG{s: s.cur}
		out[k] = &gens[k]
	}
	return out
}
