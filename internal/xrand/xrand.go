// Package xrand provides deterministic random number helpers used by the
// DAG generators and the experiment harness.
//
// All randomness in this repository flows through an *xrand.Source seeded
// from a scenario identifier, so every experiment is exactly reproducible:
// the same (application type, parameter set, sample index) always yields the
// same task graph and the same costs, on any machine.
package xrand

import (
	"hash/fnv"
	"math/rand"
)

// Source is a deterministic random source. It wraps math/rand.Rand seeded
// explicitly; it is NOT safe for concurrent use (each goroutine should own
// its Source, which the experiment runner guarantees).
type Source struct {
	rng *rand.Rand
}

// New returns a Source seeded with the given seed.
func New(seed int64) *Source {
	return &Source{rng: rand.New(rand.NewSource(seed))}
}

// SeedFromString derives a stable int64 seed from the FNV-1a hash of s,
// e.g. an independent seed per scenario name such as
// "layered/n=50/width=0.5/density=0.2/regularity=0.8/sample=1".
func SeedFromString(s string) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return int64(h.Sum64())
}

// Uniform returns a float64 uniformly distributed in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.rng.Float64()
}

// Float64 returns a float64 in [0, 1).
func (s *Source) Float64() float64 { return s.rng.Float64() }

// Intn returns an int in [0, n).
func (s *Source) Intn(n int) int { return s.rng.Intn(n) }

// Perm returns a random permutation of [0, n).
func (s *Source) Perm(n int) []int { return s.rng.Perm(n) }

// Shuffle shuffles the first n elements using the provided swap function.
func (s *Source) Shuffle(n int, swap func(i, j int)) { s.rng.Shuffle(n, swap) }

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool { return s.rng.Float64() < p }
