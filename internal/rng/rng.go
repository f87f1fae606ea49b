// Package rng provides deterministic, splittable random-number utilities
// for reproducible experiments.
//
// Every experiment in this repository is keyed by (experiment name,
// replication index); Derive maps such keys to independent rand.Rand
// streams so that adding replications or reordering experiments never
// perturbs existing results.
package rng

import (
	"hash/fnv"
	"math/rand"
)

// Derive returns a rand.Rand whose stream is a pure function of the base
// seed and the labels. Distinct label sequences give (with overwhelming
// probability) independent streams.
func Derive(seed int64, labels ...string) *rand.Rand {
	return rand.New(rand.NewSource(DeriveSeed(seed, labels...)))
}

// DeriveSeed hashes the base seed together with the labels into a new seed.
func DeriveSeed(seed int64, labels ...string) int64 {
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(seed >> (8 * i))
	}
	_, _ = h.Write(buf[:])
	for _, l := range labels {
		_, _ = h.Write([]byte{0}) // separator: ("ab","c") != ("a","bc")
		_, _ = h.Write([]byte(l))
	}
	return int64(h.Sum64())
}

// Uniform draws from [lo, hi).
func Uniform(r *rand.Rand, lo, hi float64) float64 {
	return lo + r.Float64()*(hi-lo)
}
