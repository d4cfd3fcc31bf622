package code

import (
	"fmt"
	"sync"
)

// ArrangedHot is the arranged hot code AHC: the words of the hot code
// HC(M, k) re-ordered in a Gray-code fashion so that successive words differ
// in the minimum possible number of digits. Because the value counts of a
// hot-code word are fixed, a single-digit change is impossible; the minimum
// is two digits (one transposition), and Sec. 5.2 of the paper reports that
// such an arrangement always exists for the space sizes relevant to
// nanowire arrays.
//
// The arrangement is found by deterministic backtracking with per-digit
// usage balancing (the same secondary objective as the balanced Gray code),
// so the AHC inherits both the minimal transition count and an even spread
// of doses across mesowire columns.
type ArrangedHot struct {
	hot *Hot

	// SearchBudget bounds the number of DFS nodes explored per search.
	SearchBudget int

	mu    sync.Mutex
	cache map[int][]byte // count -> the searched words, flat
}

// NewArrangedHot returns the arranged hot code with word length M over the
// given base.
func NewArrangedHot(base, length int) (*ArrangedHot, error) {
	h, err := NewHot(base, length)
	if err != nil {
		return nil, err
	}
	return &ArrangedHot{
		hot:          h,
		SearchBudget: DefaultBGCSearchBudget,
		cache:        make(map[int][]byte),
	}, nil
}

// Type implements Generator.
func (a *ArrangedHot) Type() Type { return TypeArrangedHot }

// Base implements Generator.
func (a *ArrangedHot) Base() int { return a.hot.base }

// Length implements Generator.
func (a *ArrangedHot) Length() int { return a.hot.length }

// K returns the multiplicity k of the underlying hot code.
func (a *ArrangedHot) K() int { return a.hot.k }

// SpaceSize implements Generator.
func (a *ArrangedHot) SpaceSize() int { return a.hot.SpaceSize() }

// Sequence implements Generator: the first count words of a minimal-
// transition arrangement of the hot-code space.
func (a *ArrangedHot) Sequence(count int) ([]Word, error) {
	if count < 0 {
		return nil, fmt.Errorf("code: negative word count %d", count)
	}
	if count > a.SpaceSize() {
		return nil, fmt.Errorf("%w: arranged hot code (M=%d, k=%d, n=%d) has %d words, requested %d",
			ErrCountExceedsSpace, a.hot.length, a.hot.k, a.hot.base, a.SpaceSize(), count)
	}
	// The sequence cache makes the generator safe for concurrent use by
	// the parallel sweep drivers (which share generators through Cached).
	a.mu.Lock()
	defer a.mu.Unlock()
	rows, ok := a.cache[count]
	if !ok {
		rows = a.search(count)
		a.cache[count] = rows
	}
	return wordsOf(rows, a.hot.length, a.hot.base, false), nil
}

// search finds count distinct hot-code words where successive words differ
// by exactly one transposition, returned as flat rows of M digits. It
// falls back to the lexicographic hot-code order if the budgeted search
// fails (which does not happen for the spaces the paper considers; the
// fallback keeps the API total).
func (a *ArrangedHot) search(count int) []byte {
	if count == 0 {
		return nil
	}
	// Canonical start: the lexicographically smallest word 0^k 1^k ... .
	start := make([]byte, a.hot.length)
	for i := range start {
		start[i] = byte(i / a.hot.k)
	}
	path := newPathSet(a.hot.base, start, count)
	if count == 1 {
		return path.rows
	}
	s := &ahcSearch{
		count:  count,
		budget: a.SearchBudget,
		usage:  make([]int, a.hot.length),
		path:   path,
	}
	if s.dfs(1) {
		return path.rows
	}
	words, err := a.hot.Sequence(count)
	if err != nil {
		// count was validated against the space size already.
		panic("code: hot fallback failed: " + err.Error())
	}
	for i, w := range words {
		for j, d := range w {
			path.rows[i*a.hot.length+j] = byte(d)
		}
	}
	return path.rows
}

type ahcSearch struct {
	count  int
	budget int
	usage  []int     // how often each position changed so far
	moves  []ahcMove // stack of the candidate moves of the nodes on the path
	path   *pathSet
}

// ahcMove swaps the digits at positions i < j; cost is their combined
// usage when the node listed the move.
type ahcMove struct{ i, j, cost int32 }

// dfs extends the path, which holds n words, to s.count words.
func (s *ahcSearch) dfs(n int) bool {
	if n == s.count {
		return true
	}
	if s.budget <= 0 {
		return false
	}
	s.budget--
	p, usage := s.path, s.usage
	cur, next := p.row(n-1), p.row(n)
	copy(next, cur)
	key := p.keys[n-1]
	// Candidate moves: swap the values at two positions holding different
	// digits. Prefer position pairs with the lowest combined usage so the
	// transitions spread across columns. The node pushes its moves on
	// s.moves and pops them before returning false; its children push
	// above them, so they stay intact in moves even if append moves the
	// stack.
	lo := len(s.moves)
	for i := 0; i < len(cur); i++ {
		for j := i + 1; j < len(cur); j++ {
			if cur[i] != cur[j] {
				s.moves = append(s.moves, ahcMove{int32(i), int32(j), int32(usage[i] + usage[j])})
			}
		}
	}
	moves := s.moves[lo:]
	// Stable insertion sort by cost keeps the search deterministic.
	for i := 1; i < len(moves); i++ {
		for k := i; k > 0 && moves[k].cost < moves[k-1].cost; k-- {
			moves[k], moves[k-1] = moves[k-1], moves[k]
		}
	}
	for _, mv := range moves {
		i, j := int(mv.i), int(mv.j)
		next[i], next[j] = next[j], next[i]
		mkey := p.swapKey(key, i, j, cur[i], cur[j])
		if slot, seen := p.find(n, mkey); !seen {
			p.add(slot, n, mkey)
			usage[i]++
			usage[j]++
			if s.dfs(n + 1) {
				return true
			}
			usage[i]--
			usage[j]--
			p.drop(slot)
		}
		next[i], next[j] = next[j], next[i]
	}
	s.moves = s.moves[:lo]
	return false
}
