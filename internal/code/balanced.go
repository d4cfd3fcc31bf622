package code

import (
	"fmt"
	"sync"
)

// BalancedGray is the balanced Gray arrangement BGC (after Bhat & Savage):
// a Gray sequence — successive base words differ in exactly one digit — in
// which the digit transitions are additionally spread as evenly as possible
// across the digit positions, targeting the paper's limit of at most two
// changes per digit. Balancing flattens the variability matrix Σ: no single
// mesowire column accumulates a disproportionate number of implantation
// doses.
//
// The arrangement is found by deterministic backtracking over the Hamming
// graph of the code space with an iteratively deepened per-digit change cap,
// starting at the information-theoretic minimum ceil((count-1)/(M/2)). When
// the search budget runs out at every cap it tries, the generator degrades
// gracefully to the plain Gray arrangement, so Sequence never fails for
// feasible counts.
type BalancedGray struct {
	base   int
	length int

	// DigitChangeTarget is the preferred per-digit change cap; the paper
	// sets it to 2. The search starts at the feasibility minimum, takes the
	// first cap that succeeds, and stops deepening after failing at a cap
	// of at least max(target, minimum+2).
	DigitChangeTarget int

	// SearchBudget bounds the number of DFS nodes explored per cap level.
	SearchBudget int

	mu    sync.Mutex
	cache map[int][]byte // count -> the searched base words, flat
}

// DefaultBGCSearchBudget is the per-cap node budget of the backtracking
// search. Most sequences the paper's experiments need (count <= 64,
// M <= 12) resolve within a tiny fraction of it; the scaling experiment's
// binary M = 10, N = 26 arrangement spends all of it at cap 5 before
// cap 6 succeeds.
const DefaultBGCSearchBudget = 2_000_000

// NewBalancedGray returns the balanced Gray arrangement with total
// (reflected) word length M.
func NewBalancedGray(base, length int) (*BalancedGray, error) {
	if err := checkBase(base); err != nil {
		return nil, err
	}
	if length < 2 || length%2 != 0 {
		return nil, fmt.Errorf("code: reflected balanced Gray code needs even length >= 2, got %d", length)
	}
	return &BalancedGray{
		base:              base,
		length:            length,
		DigitChangeTarget: 2,
		SearchBudget:      DefaultBGCSearchBudget,
		cache:             make(map[int][]byte),
	}, nil
}

// Type implements Generator.
func (b *BalancedGray) Type() Type { return TypeBalancedGray }

// Base implements Generator.
func (b *BalancedGray) Base() int { return b.base }

// Length implements Generator.
func (b *BalancedGray) Length() int { return b.length }

// BaseLength returns the number of free digits M/2.
func (b *BalancedGray) BaseLength() int { return b.length / 2 }

// SpaceSize implements Generator: Ω = n^(M/2).
func (b *BalancedGray) SpaceSize() int { return pow(b.base, b.BaseLength()) }

// Sequence implements Generator. The returned words are reflected.
func (b *BalancedGray) Sequence(count int) ([]Word, error) {
	if count < 0 {
		return nil, fmt.Errorf("code: negative word count %d", count)
	}
	if count > b.SpaceSize() {
		return nil, fmt.Errorf("%w: balanced Gray code base %d length %d has %d words, requested %d",
			ErrCountExceedsSpace, b.base, b.length, b.SpaceSize(), count)
	}
	// The sequence cache makes the generator safe for concurrent use by
	// the parallel sweep drivers (which share generators through Cached).
	b.mu.Lock()
	defer b.mu.Unlock()
	rows, ok := b.cache[count]
	if !ok {
		rows = b.searchBase(count)
		b.cache[count] = rows
	}
	return wordsOf(rows, b.BaseLength(), b.base, true), nil
}

// searchBase finds count distinct base words forming a Gray path with the
// smallest achievable maximum per-digit change count, returned as flat
// rows of M/2 digits.
func (b *BalancedGray) searchBase(count int) []byte {
	l := b.BaseLength()
	if count == 0 {
		return nil
	}
	path := newPathSet(b.base, make([]byte, l), count)
	if count == 1 {
		return path.rows
	}
	s := &bgcSearch{
		base:  b.base,
		l:     l,
		count: count,
		usage: make([]int, l),
		order: make([]int32, (count-1)*l),
		path:  path,
	}
	minCap := (count - 2 + l) / l // ceil((count-1)/l)
	maxCap := count - 1
	for c := minCap; c <= maxCap; c++ {
		// A failed level backtracks all the way, leaving only the start
		// word on the path and every usage at zero for the next one.
		s.perDig, s.budget = c, b.SearchBudget
		if s.dfs(1) {
			return path.rows
		}
		if c >= b.DigitChangeTarget && c >= minCap+2 {
			// Deepening further trades balance for search time with no
			// benefit over the plain Gray fallback.
			break
		}
	}
	// Fallback: plain Gray arrangement (always a valid Gray path).
	g := &Gray{base: b.base, length: b.length}
	for i := 0; i < count; i++ {
		for j, d := range g.BaseWord(i) {
			path.rows[i*l+j] = byte(d)
		}
	}
	return path.rows
}

type bgcSearch struct {
	base   int
	l      int
	count  int
	perDig int // max allowed changes per digit position
	budget int
	usage  []int   // per-digit change counts so far
	order  []int32 // the node holding n path words orders digits in order[(n-1)*l : n*l]
	path   *pathSet
}

// dfs extends the path, which holds n words, to s.count words.
func (s *bgcSearch) dfs(n int) bool {
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
	// Visit digits with the lowest usage first so balance emerges greedily;
	// ties break on digit index, then value, keeping the search
	// deterministic (the insertion sort is stable).
	order := s.order[(n-1)*s.l : n*s.l]
	for j := range order {
		k := j
		for ; k > 0 && usage[order[k-1]] > usage[j]; k-- {
			order[k] = order[k-1]
		}
		order[k] = int32(j)
	}
	for _, j := range order {
		if usage[j] >= s.perDig {
			continue
		}
		old := cur[j]
		for v := byte(0); int(v) < s.base; v++ {
			if v == old {
				continue
			}
			next[j] = v
			vkey := p.setKey(key, int(j), old, v)
			if slot, seen := p.find(n, vkey); !seen {
				p.add(slot, n, vkey)
				usage[j]++
				if s.dfs(n + 1) {
					return true
				}
				usage[j]--
				p.drop(slot)
			}
		}
		next[j] = old
	}
	return false
}

// wordsOf returns the words stored flat in rows, width digits each, backed
// by one array. With reflect set, each word is followed by its
// (base-1)-complement, as Word.Reflect appends it.
func wordsOf(rows []byte, width, base int, reflect bool) []Word {
	size := width
	if reflect {
		size *= 2
	}
	words := make([]Word, len(rows)/width)
	flat := make([]int, len(words)*size)
	for i := range words {
		w := Word(flat[i*size : (i+1)*size : (i+1)*size])
		for j, d := range rows[i*width : (i+1)*width] {
			w[j] = int(d)
			if reflect {
				w[width+j] = base - 1 - int(d)
			}
		}
		words[i] = w
	}
	return words
}
