// Package stats provides the small statistical toolbox used throughout the
// nanowire-decoder simulator: a deterministic pseudo-random number generator,
// Gaussian distribution helpers built on the error function, and summary
// statistics for Monte-Carlo experiments.
//
// Everything in this package is deterministic given a seed, so that every
// experiment and test in the repository is exactly reproducible.
package stats

import "math"

// RNG is a deterministic pseudo-random number generator based on
// xoshiro256** seeded through SplitMix64. It is not safe for concurrent use;
// create one RNG per goroutine.
//
// The zero value is not usable; construct with NewRNG.
type RNG struct {
	s [4]uint64

	// cached second variate for the Marsaglia polar Gaussian method.
	gauss    float64
	hasGauss bool
}

// NewRNG returns a generator seeded deterministically from seed.
// Two RNGs built from the same seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	// SplitMix64 expansion of the seed into the xoshiro state. This is the
	// initialisation recommended by the xoshiro authors: it guarantees a
	// non-zero state for every seed including zero.
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next value of the xoshiro256** stream.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform variate in [0, 1) with 53 random bits.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform variate in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	// Lemire-style bounded rejection keeps the distribution exact.
	bound := uint64(n)
	threshold := -bound % bound
	for {
		v := r.Uint64()
		if v >= threshold {
			return int(v % bound)
		}
	}
}

// NormFloat64 returns a standard normal variate (mean 0, standard
// deviation 1) using the Marsaglia polar method.
func (r *RNG) NormFloat64() float64 {
	if r.hasGauss {
		r.hasGauss = false
		return r.gauss
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s == 0 || s >= 1 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.gauss = v * f
		r.hasGauss = true
		return u * f
	}
}

// Normal returns a normal variate with the given mean and standard
// deviation sigma. A non-positive sigma returns mean exactly.
func (r *RNG) Normal(mean, sigma float64) float64 {
	if sigma <= 0 {
		return mean
	}
	return mean + sigma*r.NormFloat64()
}

// Perm returns a deterministic pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Fork returns a new RNG whose stream is decorrelated from r but still a
// pure function of r's current state; useful to give each simulated cave or
// trial its own generator while keeping global determinism. Fork advances
// r by one draw, so successive forks differ.
func (r *RNG) Fork() *RNG {
	return NewRNG(r.Uint64() ^ 0xa0761d6478bd642f)
}

// Clone returns an independent copy of r: both generators continue from the
// same point of the same stream.
func (r *RNG) Clone() *RNG {
	c := *r
	return &c
}

// jump256 is the standard xoshiro256** jump polynomial: applying it is
// equivalent to 2^128 calls of Uint64.
var jump256 = [4]uint64{0x180ec6d33cfd0aba, 0xd5a61266f0c9392c, 0xa9582618e03fc9aa, 0x39abdc4529b1661c}

// advance applies one of the jump polynomials to the generator state and
// drops any cached Gaussian variate (the cache belongs to the pre-jump
// stream position).
func (r *RNG) advance(poly [4]uint64) {
	var s [4]uint64
	for _, p := range poly {
		for b := uint(0); b < 64; b++ {
			if p&(1<<b) != 0 {
				s[0] ^= r.s[0]
				s[1] ^= r.s[1]
				s[2] ^= r.s[2]
				s[3] ^= r.s[3]
			}
			r.Uint64()
		}
	}
	r.s = s
	r.gauss = 0
	r.hasGauss = false
}

// Jump advances r by 2^128 steps of the xoshiro256** stream. Between two
// successive jump points there is room for 2^128 draws, so generators
// separated by jumps never overlap in practice.
func (r *RNG) Jump() { r.advance(jump256) }

// Split returns the i-th jump substream of r without mutating r: a copy of
// r's state advanced by i+1 jumps. Each substream starts 2^128 steps after
// the previous one, so shards that draw fewer than 2^128 values (all of
// them) are guaranteed disjoint — the reproducible sharding primitive of
// the parallel experiment drivers. Split(i) costs i+1 jump applications;
// use Streams to fan out many substreams in linear time.
func (r *RNG) Split(i uint64) *RNG {
	c := &RNG{s: r.s}
	for k := uint64(0); k <= i; k++ {
		c.Jump()
	}
	return c
}

// Streams returns n substreams identical to Split(0) .. Split(n-1), computed
// incrementally in O(n) jumps. r is not mutated.
func (r *RNG) Streams(n int) []*RNG {
	if n <= 0 {
		return nil
	}
	out := make([]*RNG, n)
	cur := &RNG{s: r.s}
	for i := range out {
		cur.Jump()
		out[i] = &RNG{s: cur.s}
	}
	return out
}
