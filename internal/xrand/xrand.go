// Package xrand provides a small, fast, deterministic, splittable random
// number generator used throughout the repository.
//
// Distributed randomized algorithms in this codebase must behave identically
// under the sequential and the concurrent LOCAL engines, and across repeated
// runs with the same seed. math/rand's global functions are unsuitable for
// that (shared state, lock contention, no stable stream derivation), so every
// node derives its own private stream from a root seed and its node ID.
//
// The generator is SplitMix64 (Steele, Lea, Flood; "Fast splittable
// pseudorandom number generators", OOPSLA 2014): a 64-bit counter advanced by
// the golden-gamma constant and finalized by a variant of the MurmurHash3
// finalizer. It passes BigCrush when used as specified and, crucially, admits
// cheap, well-distributed stream splitting, which is exactly what a
// goroutine-per-node simulator needs.
package xrand

import (
	"math"
	"math/bits"
)

// RNG is a deterministic pseudorandom number generator. The zero value is a
// valid generator seeded with 0; prefer New or Derive for explicit seeding.
//
// RNG is not safe for concurrent use; derive one stream per goroutine.
type RNG struct {
	state uint64
}

// New returns a generator seeded with seed.
func New(seed uint64) *RNG {
	return &RNG{state: seed}
}

// golden gamma: 2^64 / phi, rounded to odd.
const gamma = 0x9e3779b97f4a7c15

// mix64 is the SplitMix64 output function.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns a uniformly distributed 64-bit value.
func (r *RNG) Uint64() uint64 {
	r.state += gamma
	return mix64(r.state)
}

// Derive returns a new independent stream determined by the receiver's seed
// and the given stream identifier. Derive does not advance the receiver, so
// the mapping (seed, stream) -> RNG is stable: every node can be handed the
// same stream on every run regardless of scheduling.
func (r *RNG) Derive(stream uint64) *RNG {
	rng := r.Derived(stream)
	return &rng
}

// Derived is Derive returning the generator by value, for callers that embed
// per-node streams in flat arrays (a million-node simulation cannot afford a
// heap allocation per node's RNG).
func (r *RNG) Derived(stream uint64) RNG {
	// Mix the stream ID through two rounds so that adjacent node IDs yield
	// unrelated streams.
	return RNG{state: mix64(r.state+gamma) ^ mix64(stream*gamma+1)}
}

// Int63 returns a non-negative 63-bit value.
func (r *RNG) Int63() int64 {
	return int64(r.Uint64() >> 1)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0, mirroring
// math/rand.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with n <= 0")
	}
	// Lemire's multiply-shift rejection method, unbiased.
	bound := uint64(n)
	for {
		hi, lo := bits.Mul64(r.Uint64(), bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// SkipIntn advances the stream to exactly where k calls of Intn(n) would
// leave it, without computing their results: a draw's value is its product's
// high word, but only the low word's rejection test decides how many outputs
// it consumes. When n is a power of two no output is ever rejected and the
// skip is O(1). It panics if n <= 0.
func (r *RNG) SkipIntn(n, k int) {
	if n <= 0 {
		panic("xrand: SkipIntn called with n <= 0")
	}
	bound := uint64(n)
	thresh := -bound % bound
	if thresh == 0 {
		r.state += uint64(max(k, 0)) * gamma
		return
	}
	for range k {
		r.state += gamma
		for mix64(r.state)*bound < thresh {
			r.state += gamma
		}
	}
}

// Int63n returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("xrand: Int63n called with n <= 0")
	}
	if n <= math.MaxInt32 {
		return int64(r.Intn(int(n)))
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := r.Int63()
	for v > max {
		v = r.Int63()
	}
	return v % n
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns a uniform boolean.
func (r *RNG) Bool() bool {
	return r.Uint64()&1 == 1
}

// Bernoulli returns true with probability p (clamped to [0, 1]).
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Perm returns a pseudorandom permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle pseudo-randomizes the order of n elements using the provided swap
// function, mirroring math/rand.Shuffle.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Exp returns an exponentially distributed value with the given rate
// (mean 1/rate). It panics if rate <= 0.
func (r *RNG) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("xrand: Exp called with rate <= 0")
	}
	return -math.Log(1-r.Float64()) / rate
}
