package code

import (
	"bytes"
	"math/bits"
)

// pathSet is the visited set of the arrangement searches. A depth-first
// path search un-visits words in LIFO order as it backtracks, so the set
// only ever holds the current path. Path word i is row i of one flat digit
// buffer, keyed by its mixed-radix index Σ d_j·base^(width-1-j) kept as a
// wrapping uint64, which a search updates in O(1) per move. An
// open-addressing table of path positions finds a word by key and confirms
// it digit by digit, so the set stays exact where base^width overflows 64
// bits, and its memory is bounded by the path, never by the code space.
type pathSet struct {
	width  int
	rows   []byte   // path word i is rows[i*width : (i+1)*width]
	keys   []uint64 // keys[i] is the key of path word i
	weight []uint64 // weight[j] = base^(width-1-j), wrapping
	slots  []int32  // linear probing; 0 is empty, else path position + 1
	shift  uint     // a key hashes to its Fibonacci product >> shift
}

// newPathSet returns the set for a path of at most count words of
// len(start) digits each, holding start as path word 0.
func newPathSet(base int, start []byte, count int) *pathSet {
	width := len(start)
	size := 2
	for size < 2*count {
		size <<= 1
	}
	p := &pathSet{
		width:  width,
		rows:   make([]byte, count*width),
		keys:   make([]uint64, count),
		weight: make([]uint64, width),
		slots:  make([]int32, size),
		shift:  uint(64 - bits.TrailingZeros(uint(size))),
	}
	w := uint64(1)
	for j := width - 1; j >= 0; j-- {
		p.weight[j] = w
		w *= uint64(base)
	}
	var key uint64
	for j, d := range start {
		key += uint64(d) * p.weight[j]
	}
	copy(p.rows, start)
	slot, _ := p.find(0, key)
	p.add(slot, 0, key)
	return p
}

// row returns the digits of path word i.
func (p *pathSet) row(i int) []byte { return p.rows[i*p.width : (i+1)*p.width] }

// setKey returns the key of a word with the given key after its digit j
// changes from old to v.
func (p *pathSet) setKey(key uint64, j int, old, v byte) uint64 {
	return key + (uint64(v)-uint64(old))*p.weight[j]
}

// swapKey returns the key of a word with the given key after its digits
// di at position i and dj at position j trade places.
func (p *pathSet) swapKey(key uint64, i, j int, di, dj byte) uint64 {
	return key + (uint64(di)-uint64(dj))*(p.weight[j]-p.weight[i])
}

// find looks for row i, which the caller has written but not added, among
// the words before it on the path. It reports whether one is equal; if
// none is, slot is where add files row i.
func (p *pathSet) find(i int, key uint64) (slot int, seen bool) {
	mask := len(p.slots) - 1
	for s := int((key * 0x9e3779b97f4a7c15) >> p.shift); ; s = (s + 1) & mask {
		pos := int(p.slots[s]) - 1
		if pos < 0 {
			return s, false
		}
		if p.keys[pos] == key && bytes.Equal(p.row(pos), p.row(i)) {
			return s, true
		}
	}
}

// add files path word i with the given key in the empty slot find
// returned for it.
func (p *pathSet) add(slot, i int, key uint64) {
	p.keys[i] = key
	p.slots[slot] = int32(i + 1)
}

// drop removes the word filed at slot, which must be the last one added.
// Every word still on the path was added before it, so no probe chain of
// theirs runs through its slot, and emptying the slot is exact.
func (p *pathSet) drop(slot int) { p.slots[slot] = 0 }
