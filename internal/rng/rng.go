// Package rng provides a deterministic, splittable pseudo-random number
// generator used by every stochastic component in the repository.
//
// The generator is xoshiro256** seeded via splitmix64. Unlike math/rand,
// its output is stable across Go releases and platforms, which keeps every
// generated trace — and therefore every reproduced table and figure —
// bit-for-bit reproducible from a single root seed.
package rng

import "math"

// Source is a deterministic 64-bit PRNG (xoshiro256**).
//
// The zero value is not usable; construct with New or Split.
type Source struct {
	s0, s1, s2, s3 uint64

	// Cached second variate from the polar Box–Muller transform.
	spare     float64
	haveSpare bool
}

// splitmix64 advances the seed and returns the next splitmix64 output.
// It is used to expand a single seed into the four xoshiro words and to
// derive child stream seeds.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from seed. Distinct seeds give independent
// streams; the same seed always yields the same stream.
func New(seed uint64) *Source {
	var s Source
	x := seed
	s.s0 = splitmix64(&x)
	s.s1 = splitmix64(&x)
	s.s2 = splitmix64(&x)
	s.s3 = splitmix64(&x)
	// xoshiro must not start from the all-zero state; splitmix64 cannot
	// produce four zero words from any seed, but guard anyway.
	if s.s0|s.s1|s.s2|s.s3 == 0 {
		s.s0 = 0x9e3779b97f4a7c15
	}
	return &s
}

// Split derives an independent child stream from the parent, keyed by label.
// The parent's state is not advanced, so the set of children depends only on
// the parent's seed and the labels used — subsystems can be added or removed
// without perturbing each other's randomness.
func (s *Source) Split(label string) *Source {
	x := s.s0 ^ rotl(s.s2, 17)
	for i := 0; i < len(label); i++ {
		x = (x ^ uint64(label[i])) * 0x100000001b3
	}
	return New(x)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (s *Source) Uint64() uint64 {
	result := rotl(s.s1*5, 7) * 9
	t := s.s1 << 17
	s.s2 ^= s.s0
	s.s3 ^= s.s1
	s.s1 ^= s.s2
	s.s0 ^= s.s3
	s.s2 ^= t
	s.s3 = rotl(s.s3, 45)
	return result
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 {
	// 53 high bits give a uniform dyadic rational in [0,1).
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Float64Open returns a uniform float64 in (0, 1), never exactly 0 or 1.
// Distributions that take logarithms of the variate use this to avoid
// infinities.
func (s *Source) Float64Open() float64 {
	for {
		f := s.Float64()
		if f > 0 && f < 1 {
			return f
		}
	}
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n). It panics if n == 0. A
// power of two masks one draw. Any other n rejects draws at or above
// MaxUint64 − MaxUint64%n, which removes the modulo bias, and returns the
// draw mod n.
func (s *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	if n&(n-1) == 0 {
		return s.Uint64() & (n - 1)
	}
	bound := math.MaxUint64 - math.MaxUint64%n
	for {
		v := s.Uint64()
		if v < bound {
			return v % n
		}
	}
}

// NormFloat64 returns a standard normal variate via the polar Box–Muller
// (Marsaglia) method. The spare variate is cached.
func (s *Source) NormFloat64() float64 {
	if s.haveSpare {
		s.haveSpare = false
		return s.spare
	}
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q == 0 || q >= 1 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(q) / q)
		s.spare = v * f
		s.haveSpare = true
		return u * f
	}
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}
