// Package submodular implements submodular function minimization (SFM)
// and ratio minimization over set functions on ground sets of up to 64
// elements.
//
// The centerpiece is the Fujishige–Wolfe minimum-norm-point algorithm,
// which CCSA uses (via Dinkelbach iteration) to find, for each charger,
// the coalition of uncovered devices with minimum average comprehensive
// cost.
package submodular

import (
	"fmt"
	"math/bits"
	"strings"
)

// Set is a subset of the ground set {0, …, n-1}, n ≤ 64, as a bitmask.
type Set uint64

// EmptySet is the empty subset.
const EmptySet Set = 0

// SetOf builds a Set from element indices.
func SetOf(elems ...int) Set {
	var s Set
	for _, e := range elems {
		s |= 1 << uint(e)
	}
	return s
}

// Has reports whether element e is in s.
func (s Set) Has(e int) bool { return s&(1<<uint(e)) != 0 }

// Add returns s ∪ {e}.
func (s Set) Add(e int) Set { return s | 1<<uint(e) }

// Remove returns s ∖ {e}.
func (s Set) Remove(e int) Set { return s &^ (1 << uint(e)) }

// Card returns |s|.
func (s Set) Card() int { return bits.OnesCount64(uint64(s)) }

// Empty reports whether s is the empty set.
func (s Set) Empty() bool { return s == 0 }

// Elems returns the elements of s in increasing order.
func (s Set) Elems() []int {
	out := make([]int, 0, s.Card())
	for t := uint64(s); t != 0; {
		e := bits.TrailingZeros64(t)
		out = append(out, e)
		t &= t - 1
	}
	return out
}

// String implements fmt.Stringer, e.g. "{0,3,5}".
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, e := range s.Elems() {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", e)
	}
	b.WriteByte('}')
	return b.String()
}

// Function is a set function on a ground set of N elements. Eval need not
// be normalized: minimization routines subtract Eval(EmptySet) internally.
type Function interface {
	// N returns the ground-set size (must be ≤ 64).
	N() int
	// Eval returns f(s).
	Eval(s Set) float64
}

// FuncOf adapts a closure to Function.
func FuncOf(n int, eval func(Set) float64) Function {
	return funcOf{n: n, eval: eval}
}

type funcOf struct {
	n    int
	eval func(Set) float64
}

func (f funcOf) N() int             { return f.n }
func (f funcOf) Eval(s Set) float64 { return f.eval(s) }
