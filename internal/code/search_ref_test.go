package code

import (
	"fmt"
	"runtime"
	"testing"
)

// This file keeps the arrangement searches in their original form,
// string-keyed visited maps and a cloned word per node, as the oracle for
// the production searches over integer keys and the path set. Both must
// return the same sequence for every (base, length, count, budget): the
// same cap schedule, visiting order, budget accounting and fallback.

// refBalancedGray returns the reflected balanced-Gray sequence the
// original search finds with the given budget and per-digit target.
func refBalancedGray(base, length, count, budget, target int) []Word {
	l := length / 2
	var baseWords []Word
	switch {
	case count == 0:
	case count == 1:
		baseWords = []Word{make(Word, l)}
	default:
		baseWords = refBalancedGrayBase(base, length, count, budget, target)
	}
	words := make([]Word, len(baseWords))
	for i, w := range baseWords {
		words[i] = w.Reflect(base)
	}
	return words
}

func refBalancedGrayBase(base, length, count, budget, target int) []Word {
	l := length / 2
	start := make(Word, l)
	minCap := (count - 2 + l) / l
	for c := minCap; c <= count-1; c++ {
		s := &refBGCSearch{
			base:    base,
			count:   count,
			perDig:  c,
			budget:  budget,
			visited: map[string]bool{start.Key(): true},
			usage:   make([]int, l),
			path:    []Word{start},
		}
		if s.dfs() {
			return s.path
		}
		if c >= target && c >= minCap+2 {
			break
		}
	}
	g := &Gray{base: base, length: length}
	out := make([]Word, count)
	for i := range out {
		out[i] = g.BaseWord(i)
	}
	return out
}

type refBGCSearch struct {
	base    int
	count   int
	perDig  int
	budget  int
	visited map[string]bool
	usage   []int
	path    []Word
}

func (s *refBGCSearch) dfs() bool {
	if len(s.path) == s.count {
		return true
	}
	if s.budget <= 0 {
		return false
	}
	s.budget--
	cur := s.path[len(s.path)-1]
	for _, j := range refDigitOrder(s.usage) {
		if s.usage[j] >= s.perDig {
			continue
		}
		old := cur[j]
		for v := 0; v < s.base; v++ {
			if v == old {
				continue
			}
			cur[j] = v
			key := cur.Key()
			if !s.visited[key] {
				s.visited[key] = true
				s.usage[j]++
				s.path = append(s.path, cur.Clone())
				if s.dfs() {
					cur[j] = old
					return true
				}
				s.path = s.path[:len(s.path)-1]
				s.usage[j]--
				delete(s.visited, key)
			}
		}
		cur[j] = old
	}
	return false
}

// refDigitOrder returns digit indices sorted by ascending usage, stable on
// index.
func refDigitOrder(usage []int) []int {
	order := make([]int, len(usage))
	for i := range order {
		order[i] = i
	}
	for i := 1; i < len(order); i++ {
		for k := i; k > 0 && usage[order[k]] < usage[order[k-1]]; k-- {
			order[k], order[k-1] = order[k-1], order[k]
		}
	}
	return order
}

// refArrangedHot returns the arranged-hot sequence the original search
// finds with the given budget.
func refArrangedHot(base, length, count, budget int) []Word {
	h, err := NewHot(base, length)
	if err != nil {
		panic(err)
	}
	if count == 0 {
		return nil
	}
	start := make(Word, length)
	for i := range start {
		start[i] = i / h.k
	}
	if count == 1 {
		return []Word{start}
	}
	s := &refAHCSearch{
		count:   count,
		budget:  budget,
		visited: map[string]bool{start.Key(): true},
		usage:   make([]int, length),
		path:    []Word{start},
	}
	if s.dfs() {
		return s.path
	}
	words, err := h.Sequence(count)
	if err != nil {
		panic(err)
	}
	return words
}

type refAHCSearch struct {
	count   int
	budget  int
	visited map[string]bool
	usage   []int
	path    []Word
}

func (s *refAHCSearch) dfs() bool {
	if len(s.path) == s.count {
		return true
	}
	if s.budget <= 0 {
		return false
	}
	s.budget--
	cur := s.path[len(s.path)-1]
	type move struct{ i, j, cost int }
	var moves []move
	for i := 0; i < len(cur); i++ {
		for j := i + 1; j < len(cur); j++ {
			if cur[i] != cur[j] {
				moves = append(moves, move{i, j, s.usage[i] + s.usage[j]})
			}
		}
	}
	for i := 1; i < len(moves); i++ {
		for k := i; k > 0 && moves[k].cost < moves[k-1].cost; k-- {
			moves[k], moves[k-1] = moves[k-1], moves[k]
		}
	}
	for _, m := range moves {
		cur[m.i], cur[m.j] = cur[m.j], cur[m.i]
		key := cur.Key()
		if !s.visited[key] {
			s.visited[key] = true
			s.usage[m.i]++
			s.usage[m.j]++
			s.path = append(s.path, cur.Clone())
			if s.dfs() {
				cur[m.i], cur[m.j] = cur[m.j], cur[m.i]
				return true
			}
			s.path = s.path[:len(s.path)-1]
			s.usage[m.i]--
			s.usage[m.j]--
			delete(s.visited, key)
		}
		cur[m.i], cur[m.j] = cur[m.j], cur[m.i]
	}
	return false
}

// oracleBudgets are the search budgets the tables compare at. Across
// them budget exhaustion, cap deepening, a path completed by a node
// expanded before the budget ran out, and both fallbacks all run: at
// 20,000 some balanced-Gray counts need a deeper cap, and at 50 hundreds
// of counts of each family fall back.
var oracleBudgets = []int{50, 20_000}

func checkSameWords(t *testing.T, what string, got, want []Word) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d words, the reference returns %d", what, len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("%s: word %d is %v, the reference returns %v", what, i, got[i], want[i])
		}
	}
}

// checkBalancedGrayMatches compares every count up to min(Ω, 70) of one
// balanced-Gray generator with the reference search at each budget.
func checkBalancedGrayMatches(t *testing.T, base, length int, budgets []int) {
	t.Helper()
	for _, budget := range budgets {
		b, err := NewBalancedGray(base, length)
		if err != nil {
			t.Fatal(err)
		}
		b.SearchBudget = budget
		for count := 0; count <= min(b.SpaceSize(), 70); count++ {
			got, err := b.Sequence(count)
			if err != nil {
				t.Fatalf("base %d M %d N %d: %v", base, length, count, err)
			}
			want := refBalancedGray(base, length, count, budget, b.DigitChangeTarget)
			checkSameWords(t, fmt.Sprintf("BGC base %d M %d N %d budget %d", base, length, count, budget), got, want)
		}
	}
}

func TestBalancedGrayMatchesReference(t *testing.T) {
	for _, base := range []int{2, 3, 4, 7} {
		for length := 2; length <= 14; length += 2 {
			checkBalancedGrayMatches(t, base, length, oracleBudgets)
		}
	}
}

// TestBalancedGrayMatchesReferenceWrappingKeys covers lengths where
// base^(M/2) overflows the 64-bit key, so distinct words share keys (for
// base 2 at M = 200 the leading 36 digits do not reach the key at all)
// and only the digit comparison tells them apart. At budget 50 counts
// also fall back to the plain Gray code, which indexes these spaces
// beyond MaxInt.
func TestBalancedGrayMatchesReferenceWrappingKeys(t *testing.T) {
	for _, base := range []int{2, 3} {
		for _, length := range []int{130, 200} {
			checkBalancedGrayMatches(t, base, length, oracleBudgets)
		}
	}
}

func TestArrangedHotMatchesReference(t *testing.T) {
	for _, base := range []int{2, 3, 4, 7} {
		for length := base; length <= 14; length += base {
			if length%2 != 0 {
				continue
			}
			for _, budget := range oracleBudgets {
				a, err := NewArrangedHot(base, length)
				if err != nil {
					t.Fatal(err)
				}
				a.SearchBudget = budget
				for count := 0; count <= min(a.SpaceSize(), 70); count++ {
					got, err := a.Sequence(count)
					if err != nil {
						t.Fatalf("base %d M %d N %d: %v", base, length, count, err)
					}
					want := refArrangedHot(base, length, count, budget)
					checkSameWords(t, fmt.Sprintf("AHC base %d M %d N %d budget %d", base, length, count, budget), got, want)
				}
			}
		}
	}
}

// TestBalancedGrayMemoryBoundedByPath pins that the search's memory scales
// with the path, not the code space: at M = 60 the space holds 2^30 words,
// so a visited bitset over it would take 128 MiB.
func TestBalancedGrayMemoryBoundedByPath(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b, err := NewBalancedGray(2, 60)
	if err != nil {
		t.Fatal(err)
	}
	words, err := b.Sequence(64)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(words) != 64 {
		t.Fatalf("%d words, want 64", len(words))
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Errorf("NewBalancedGray(2, 60) and Sequence(64) allocated %d bytes, want under 64 KiB", got)
	}
}

// BenchmarkBalancedGraySearch times the slowest search the paper's
// experiments run: the scaling experiment's binary M = 10, N = 26
// arrangement exhausts the default budget at cap 5 before cap 6 succeeds.
// Each iteration uses a private generator, so nothing is cached.
func BenchmarkBalancedGraySearch(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, err := NewBalancedGray(2, 10)
		if err != nil {
			b.Fatal(err)
		}
		words, err := g.Sequence(26)
		if err != nil {
			b.Fatal(err)
		}
		sinkWords = words
	}
}

var sinkWords []Word
