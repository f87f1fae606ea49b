package instcache

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/testutil"
)

func TestByteCacheGetPutEvict(t *testing.T) {
	c, err := NewBytes(2)
	if err != nil {
		t.Fatal(err)
	}
	k := func(s string) [32]byte { return sha256.Sum256([]byte(s)) }
	if _, ok := c.Get(k("a")); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(k("a"), []byte("A"))
	c.Put(k("b"), []byte("B"))
	if v, ok := c.Get(k("a")); !ok || string(v) != "A" {
		t.Fatalf("a = %q, %v", v, ok)
	}
	// a is now most recent; inserting c must evict b.
	c.Put(k("c"), []byte("C"))
	if _, ok := c.Get(k("b")); ok {
		t.Error("least recently used entry survived")
	}
	if _, ok := c.Get(k("a")); !ok {
		t.Error("recently used entry evicted")
	}
	st := c.Stats()
	if st.Size != 2 || st.Evictions != 1 || st.Hits != 2 || st.Misses != 2 {
		t.Errorf("stats %+v", st)
	}
	// Put copies its input; later mutation must not corrupt the entry.
	v := []byte("mut")
	c.Put(k("m"), v)
	v[0] = 'X'
	if got, _ := c.Get(k("m")); string(got) != "mut" {
		t.Errorf("stored value mutated to %q", got)
	}
	// Overwriting a key replaces the value without growing the cache.
	c.Put(k("m"), []byte("new"))
	if got, _ := c.Get(k("m")); string(got) != "new" {
		t.Errorf("overwrite kept %q", got)
	}
	if c.Stats().Size != 2 {
		t.Errorf("size %d after overwrite, want 2", c.Stats().Size)
	}
	if _, err := NewBytes(0); err == nil {
		t.Error("capacity 0 accepted")
	}
}

func TestByteCacheConcurrent(t *testing.T) {
	c, err := NewBytes(16)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := sha256.Sum256([]byte(fmt.Sprintf("k%d", i%32)))
				if v, ok := c.Get(key); ok && len(v) == 0 {
					t.Errorf("empty cached value")
					return
				}
				c.Put(key, []byte(fmt.Sprintf("v%d", i%32)))
			}
		}(g)
	}
	wg.Wait()
	if c.Stats().Size > 16 {
		t.Errorf("size %d exceeds capacity", c.Stats().Size)
	}
}

// TestByteCacheEvictionOrder pins the exact LRU victim sequence across a
// mixed access pattern: eviction follows recency of *use* (Get or Put),
// not insertion order.
func TestByteCacheEvictionOrder(t *testing.T) {
	c, err := NewBytes(3)
	if err != nil {
		t.Fatal(err)
	}
	k := func(s string) [32]byte { return sha256.Sum256([]byte(s)) }
	present := func(s string) bool { _, ok := c.Get(k(s)); return ok }

	c.Put(k("a"), []byte("A"))
	c.Put(k("b"), []byte("B"))
	c.Put(k("c"), []byte("C")) // LRU order now a < b < c
	if !present("a") {         // touch a: order now b < c < a
		t.Fatal("a missing before any eviction")
	}
	c.Put(k("d"), []byte("D")) // must evict b
	if present("b") {
		t.Error("b survived; eviction did not pick the least recently used")
	}
	// The failed probe for b must not disturb the order: c is next.
	c.Put(k("e"), []byte("E")) // must evict c
	if present("c") {
		t.Error("c survived; eviction order broken after a miss probe")
	}
	c.Put(k("f"), []byte("F")) // must evict a, the oldest remaining use
	if present("a") {
		t.Error("a survived past d and e")
	}
	for _, s := range []string{"d", "e", "f"} {
		if !present(s) {
			t.Errorf("%s missing from final contents", s)
		}
	}
	if st := c.Stats(); st.Evictions != 3 || st.Size != 3 {
		t.Errorf("stats %+v, want 3 evictions at size 3", st)
	}
}

// TestByteCacheConcurrentStatsAccounting hammers Get/Put/Stats from many
// goroutines (run under -race in CI) and then checks the counters
// balance exactly against the callers' own tallies.
func TestByteCacheConcurrentStatsAccounting(t *testing.T) {
	c, err := NewBytes(8)
	if err != nil {
		t.Fatal(err)
	}
	var (
		wg           sync.WaitGroup
		hits, misses atomic.Uint64
	)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				key := sha256.Sum256([]byte(fmt.Sprintf("k%d", (g+i)%24)))
				if _, ok := c.Get(key); ok {
					hits.Add(1)
				} else {
					misses.Add(1)
					c.Put(key, []byte{byte(i)})
				}
				if i%50 == 0 {
					st := c.Stats()
					if st.Size > st.Capacity {
						t.Errorf("size %d exceeds capacity %d", st.Size, st.Capacity)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits != hits.Load() || st.Misses != misses.Load() {
		t.Errorf("stats %+v, callers saw %d hits / %d misses", st, hits.Load(), misses.Load())
	}
	if st.Hits+st.Misses != 8*300 {
		t.Errorf("hits+misses = %d, want %d lookups", st.Hits+st.Misses, 8*300)
	}
	if st.Size > st.Capacity || st.Size == 0 {
		t.Errorf("final size %d out of (0, %d]", st.Size, st.Capacity)
	}
}

func mustBytes(t testing.TB, capacity int) *ByteCache {
	t.Helper()
	c, err := NewBytes(capacity)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestByteCacheKeyPerCache: within one cache a line always gets the same
// key, the 16-byte tag zero-extended; a second cache, with a key of its
// own, gives the same line another key.
func TestByteCacheKeyPerCache(t *testing.T) {
	a, b := mustBytes(t, 4), mustBytes(t, 4)
	lines := [][]byte{nil, []byte("x"), []byte(`{"stats":true}`), bytes.Repeat([]byte("0123456789abcdef"), 1000)}
	for _, line := range lines {
		k := a.Key(line)
		if again := a.Key(append([]byte(nil), line...)); again != k {
			t.Errorf("%.20q: keys %x and %x in one cache", line, k, again)
		}
		if [16]byte(k[16:]) != [16]byte{} {
			t.Errorf("%.20q: key %x not zero-extended", line, k)
		}
		if other := b.Key(line); other == k {
			t.Errorf("%.20q: two caches share key %x", line, k)
		}
	}
	if a.Key(nil) != a.Key([]byte{}) {
		t.Error("nil and empty lines got different keys")
	}
}

// TestByteCacheKeyConcurrent runs Key, Get and Put on one cache from many
// goroutines (CI runs it under -race); every goroutine must see every
// line's one key and only that line's value under it.
func TestByteCacheKeyConcurrent(t *testing.T) {
	c := mustBytes(t, 64)
	lines := make([][]byte, 48)
	want := make([][32]byte, len(lines))
	for i := range lines {
		lines[i] = []byte(strings.Repeat(fmt.Sprintf("line %d;", i), 1+i*7))
		want[i] = c.Key(lines[i])
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 400; k++ {
				i := (g*13 + k) % len(lines)
				key := c.Key(lines[i])
				if key != want[i] {
					t.Errorf("line %d: key %x, want %x", i, key, want[i])
					return
				}
				if v, ok := c.Get(key); ok && !bytes.Equal(v, lines[i][:1+i%5]) {
					t.Errorf("line %d: value %q under its key", i, v)
					return
				}
				c.Put(key, lines[i][:1+i%5])
			}
		}(g)
	}
	wg.Wait()
}

// TestByteCacheKeyAllocs pins Key at zero allocations.
func TestByteCacheKeyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries at random")
	}
	c := mustBytes(t, 4)
	line := bytes.Repeat([]byte("{\"instance\":1}"), 2000)
	var sink [32]byte
	if n := testing.AllocsPerRun(200, func() { sink = c.Key(line) }); n != 0 {
		t.Errorf("Key allocates %v objects per call, want 0", n)
	}
	_ = sink
}

// TestNewBytesFIPSOnly: in FIPS 140-only mode the runtime refuses GCM
// with a fixed nonce; NewBytes must return that refusal rather than fall
// back to another key. The mode is read at start-up, so the test reruns
// itself under GODEBUG=fips140=only.
func TestNewBytesFIPSOnly(t *testing.T) {
	if testutil.InRerun() {
		c, err := NewBytes(8)
		fmt.Printf("NewBytes: cache %v, error: %v\n", c != nil, err)
		return
	}
	testutil.SkipWithoutFIPS140(t)
	out, err := testutil.RerunUnder(t, "fips140=only")
	if err != nil {
		t.Fatalf("rerun: %v\n%s", err, out)
	}
	if !bytes.Contains(out, []byte("NewBytes: cache false, error: instcache: raw-tier key: ")) ||
		!bytes.Contains(out, []byte("FIPS 140-only mode")) {
		t.Fatalf("under fips140=only NewBytes did not fail on GCM:\n%s", out)
	}
}

// FuzzRawKey: over one cache, distinct lines never share a key and equal
// lines always do.
func FuzzRawKey(f *testing.F) {
	c := mustBytes(f, 1)
	long := bytes.Repeat([]byte("0123456789abcdef"), 64)
	f.Add([]byte{}, []byte{0})
	f.Add([]byte("x"), []byte("x"))
	f.Add([]byte("x"), []byte("x\n"))
	f.Add(long, append(long[:len(long):len(long)], 0))
	f.Add(long, long[:len(long)-1])
	f.Add(long, append(bytes.Clone(long[:len(long)-1]), 'g'))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		ka, kb := c.Key(a), c.Key(b)
		if again := c.Key(bytes.Clone(a)); again != ka {
			t.Fatalf("%q: keys %x and %x", a, ka, again)
		}
		if equal := bytes.Equal(a, b); equal != (ka == kb) {
			t.Fatalf("%q and %q (equal %v): keys %x and %x", a, b, equal, ka, kb)
		}
	})
}
