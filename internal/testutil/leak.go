// Package testutil holds shared test helpers. It must only be imported
// from _test files.
package testutil

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// CheckGoroutines snapshots the goroutines whose stacks mention any of
// pkgSubstrs (e.g. "internal/testbed") and registers a cleanup that fails
// the test if more such goroutines exist at test end than at the start.
// Goroutines wind down asynchronously after a Close, so the cleanup polls
// up to 2 seconds before declaring a leak, and dumps the leaked stacks.
//
// Matching on a package substring instead of raw runtime.NumGoroutine
// keeps the guard immune to unrelated runtime/testing goroutines coming
// and going in parallel tests.
func CheckGoroutines(t testing.TB, pkgSubstrs ...string) {
	t.Helper()
	before := len(stacksMatching(pkgSubstrs))
	t.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		var leaked []string
		for {
			leaked = stacksMatching(pkgSubstrs)
			if len(leaked) <= before || time.Now().After(deadline) {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		if len(leaked) > before {
			t.Errorf("testutil: %d goroutine(s) in %q leaked (had %d at test start):\n%s",
				len(leaked)-before, pkgSubstrs, before, strings.Join(leaked, "\n"))
		}
	})
}

// stacksMatching returns the stack dump of every live goroutine whose
// stack mentions any of substrs, excluding the calling goroutine.
func stacksMatching(substrs []string) []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	self := fmt.Sprintf("goroutine %d ", goroutineID())
	var out []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.HasPrefix(g, self) {
			continue
		}
		for _, sub := range substrs {
			if strings.Contains(g, sub) {
				out = append(out, g)
				break
			}
		}
	}
	return out
}

// goroutineID parses the current goroutine's id from its stack header.
// Debug-only use; the id never feeds program logic.
func goroutineID() int {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	// Header shape: "goroutine 123 [running]:"
	fields := strings.Fields(string(buf[:n]))
	if len(fields) < 2 {
		return -1
	}
	var id int
	if _, err := fmt.Sscanf(fields[1], "%d", &id); err != nil {
		return -1
	}
	return id
}
