// Package lib plants one case of each kind the reachability gate judges.
package lib

import "sort"

// Planted has no non-test caller: the gate must flag it.
func Planted() int { return 1 }

// ByLen orders strings by length. sort.Sort reaches Len, Less and Swap
// only through sort.Interface, so no file names them.
type ByLen []string

func (b ByLen) Len() int           { return len(b) }
func (b ByLen) Less(i, j int) bool { return len(b[i]) < len(b[j]) }
func (b ByLen) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }

// Sorted orders xs by length in place and returns it.
func Sorted(xs []string) []string {
	sort.Sort(ByLen(xs))
	return xs
}

// BenchOnly is called only from perfbench.
func BenchOnly() int { return 2 }
