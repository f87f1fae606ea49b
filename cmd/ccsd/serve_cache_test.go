package main

import (
	"bufio"
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/instcache"
)

// The two cache tiers hold one stored reply per distinct solve: the
// solution tier stores the rendered reply with "cached":true spliced in,
// and the raw tier files that same slice under each request line that
// led to it. The tests below pin the sharing, the replies it gives, and
// the heap it keeps.

// reencoded returns line's solve request with its keys in the other
// order and whitespace between every token: the same instance in other
// bytes.
func reencoded(t testing.TB, line []byte) []byte {
	t.Helper()
	req, err := parseLineReference(bytes.TrimSuffix(line, []byte("\n")))
	if err != nil {
		t.Fatal(err)
	}
	inst := bytes.ReplaceAll(bytes.ReplaceAll(req.Instance, []byte(`,"`), []byte(`, "`)), []byte(`":`), []byte(`" : `))
	return fmt.Appendf(nil, "{ \"scheduler\" : %q ,\t\"instance\" : %s }\n", req.Scheduler, inst)
}

// solutionEntry returns the reply the solution tier stores for line,
// without solving.
func solutionEntry(t testing.TB, srv *solveServer, line []byte) []byte {
	t.Helper()
	req, err := parseLineReference(bytes.TrimSuffix(line, []byte("\n")))
	if err != nil {
		t.Fatal(err)
	}
	in, err := gen.ParseInstance(req.Instance)
	if err != nil {
		t.Fatal(err)
	}
	key, err := instcache.KeyFor(in, req.Scheduler, "")
	if err != nil {
		t.Fatal(err)
	}
	entry, cached, err := srv.cache.Do(key, func() ([]byte, error) {
		return nil, fmt.Errorf("line %.60s is not in the solution tier", line)
	})
	if err != nil || !cached {
		t.Fatalf("solution tier: cached=%v, %v", cached, err)
	}
	return entry
}

// sameArray reports whether a and b are one slice: the same backing
// array and length.
func sameArray(a, b []byte) bool {
	return len(a) == len(b) && len(a) > 0 && &a[0] == &b[0]
}

// TestServeTiersShareOneReply: after one cold solve the raw-tier entry
// and the solution-tier entry are one slice, and a re-encoded line that
// hits the solution tier files that slice under its own raw key too.
func TestServeTiersShareOneReply(t *testing.T) {
	srv, err := newSolveServer(serveOpts{cacheSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	line := largeFieldLine(t, 5, 200, 20, "CCSGA")
	variant := reencoded(t, line)
	rb := newReplyBuf()
	if out := srv.answerLine(rb, line); !bytes.Equal(out, freshReply(t, line, false)) {
		t.Fatalf("cold reply %.200s", out)
	}
	raw, ok := srv.raw.Get(srv.raw.Key(line))
	if !ok {
		t.Fatal("cold solve left no raw-tier entry")
	}
	stored := solutionEntry(t, srv, line)
	if !sameArray(raw, stored) {
		t.Fatal("the raw-tier and solution-tier entries are two copies of the reply")
	}
	if !bytes.Equal(stored, freshReply(t, line, true)) {
		t.Fatalf("stored reply %.200s", stored)
	}
	srv.answerLine(rb, variant)
	if again, ok := srv.raw.Get(srv.raw.Key(variant)); !ok || !sameArray(again, stored) {
		t.Fatal("the re-encoded line's raw-tier entry is not the stored reply")
	}
}

// TestServeReencodedLineHitsSolutionTier: a line with reordered keys and
// extra whitespace misses the raw tier and gets exactly the first reply
// with "cached":true from the solution tier, counted as one hit.
func TestServeReencodedLineHitsSolutionTier(t *testing.T) {
	srv, dial := startServer(t, 8)
	conn := dial()
	br := bufio.NewReader(conn)
	line := largeFieldLine(t, 9, 200, 20, "CCSGA")
	first := rawRoundTrip(t, conn, br, line)
	if !bytes.Equal(first, freshReply(t, line, false)) {
		t.Fatalf("first reply %.200s", first)
	}
	got := rawRoundTrip(t, conn, br, reencoded(t, line))
	if want := replayEntry(first); !bytes.Equal(got, want) {
		t.Fatalf("re-encoded reply:\n got %.200s\nwant %.200s", got, want)
	}
	if st := srv.cache.Stats(); st.Hits != 1 || st.Misses != 1 || st.Collapsed != 0 {
		t.Errorf("solution tier %+v, want one miss and one hit", st)
	}
	if st := srv.raw.Stats(); st.Hits != 0 || st.Misses != 2 || st.Size != 2 {
		t.Errorf("raw tier %+v, want two misses and two entries", st)
	}
}

// TestServeCollapsedBurstRepliesEqual sends identical and re-encoded
// copies of one solve line while its first request is still solving:
// every copy joins that solve and gets the same bytes, the first reply
// with "cached":true. Run under -race.
func TestServeCollapsedBurstRepliesEqual(t *testing.T) {
	srv, err := newSolveServer(serveOpts{cacheSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	srv.solveDelay = 500 * time.Millisecond
	line := largeFieldLine(t, 13, 200, 20, "CCSGA")
	burst := [][]byte{line, reencoded(t, line), line, append([]byte("  "), line...), reencoded(t, line)}
	var (
		wg      sync.WaitGroup
		leader  []byte
		replies = make([][]byte, len(burst))
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		leader = bytes.Clone(srv.answerLine(newReplyBuf(), line))
	}()
	for srv.cache.Stats().Misses == 0 {
		runtime.Gosched()
	}
	for i, l := range burst {
		wg.Add(1)
		go func() {
			defer wg.Done()
			replies[i] = bytes.Clone(srv.answerLine(newReplyBuf(), l))
		}()
	}
	wg.Wait()
	if !bytes.Equal(leader, freshReply(t, line, false)) {
		t.Fatalf("leader reply %.200s", leader)
	}
	want := freshReply(t, line, true)
	for i, got := range replies {
		if !bytes.Equal(got, want) {
			t.Errorf("burst line %d:\n got %.200s\nwant %.200s", i, got, want)
		}
	}
	if st := srv.cache.Stats(); st.Misses != 1 || st.Collapsed != uint64(len(burst)) {
		t.Errorf("solution tier %+v, want one solve joined by all %d burst lines", st, len(burst))
	}
}

// liveHeap is the heap still reachable after two collections; the
// second also drops what sync.Pool kept through the first.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// heapPerCachedSolve answers each of lines on srv as a distinct cold
// solve and returns the live heap the answers left behind, per entry
// they added to the tiers.
func heapPerCachedSolve(t testing.TB, srv *solveServer, lines [][]byte) float64 {
	t.Helper()
	size := srv.cache.Stats().Size
	before := liveHeap()
	rb := newReplyBuf()
	for k, line := range lines {
		if out := srv.answerLine(rb, line); bytes.Contains(out, []byte(`"error"`)) || bytes.Contains(out, []byte(`"cached"`)) {
			t.Fatalf("line %d: reply %.200s, want a cold solve", k, out)
		}
	}
	after := liveHeap()
	added := srv.cache.Stats().Size - size // and keeps srv live through the collections
	if added < 1 {
		t.Fatalf("%d lines added no entry to the tiers", len(lines))
	}
	return float64(after-before) / float64(added)
}

// maxKeptPerSolve bounds the heap both tiers keep per cached
// LargeField(200, 20) solve. With a schedule in the solution tier beside
// the raw tier's reply, it was about 4.4 KB.
const maxKeptPerSolve = 3 << 10

// TestServeCachedSolveRetention fills the tiers with 256 distinct
// LargeField(200, 20) solves, so every pool and recycled array is warm,
// then adds 512 more and pins the heap each of those keeps.
func TestServeCachedSolveRetention(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds shadow memory to every allocation")
	}
	const fill, more = 256, 512
	srv, err := newSolveServer(serveOpts{cacheSize: fill + more})
	if err != nil {
		t.Fatal(err)
	}
	lines := coldServeLines(t, fill+more)
	heapPerCachedSolve(t, srv, lines[:fill])
	kept := heapPerCachedSolve(t, srv, lines[fill:])
	t.Logf("heap kept per cached solve: %.0f bytes", kept)
	if kept > maxKeptPerSolve {
		t.Fatalf("each cached solve keeps %.0f bytes of heap, want at most %d", kept, maxKeptPerSolve)
	}
	runtime.KeepAlive(lines)
}
