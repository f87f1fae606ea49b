package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"os"
	"os/exec"
	"testing"

	"repro/internal/instcache"
	"repro/internal/testutil"
)

// TestRawKeyDistinct: the raw tier's keys never collide over the solve
// lines the service sees most — 1100 distinct LargeField(200, 20) lines,
// the solve-cold benchmark's shape — nor over every one-byte flip,
// truncation and extension of one of them: a trailing newline, appended
// zero bytes and other appended bytes, with lengths across 16-byte
// block boundaries.
func TestRawKeyDistinct(t *testing.T) {
	if raceEnabled {
		t.Skip("one goroutine only; generating the lines takes ~10x longer under the race detector")
	}
	srv, err := newSolveServer(serveOpts{cacheSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	// variant names a keyed line: which one, at (a line index, byte
	// position or length) and x (a xor mask or byte count).
	type variant struct {
		what  string
		at, x int
	}
	seen := make(map[[32]byte]variant, 100_000)
	add := func(line []byte, v variant) {
		k := srv.raw.Key(line)
		if prev, ok := seen[k]; ok {
			t.Fatalf("%+v and %+v share key %x", prev, v, k)
		}
		seen[k] = v
	}
	lines := coldServeLines(t, 1100)
	for i := range lines {
		lines[i] = bytes.TrimSuffix(lines[i], []byte("\n"))
		add(lines[i], variant{"line", i, 0})
	}
	base := bytes.Clone(lines[0])
	n := len(base)
	for p := 0; p < n-17; p++ {
		for _, x := range []byte{0x01, 0xff} {
			base[p] ^= x
			add(base, variant{"line 0, byte at xor x", p, int(x)})
			base[p] ^= x
		}
	}
	for p := n - 17; p < n; p++ { // the last bytes, flipped every way
		for x := 1; x < 256; x++ {
			base[p] ^= byte(x)
			add(base, variant{"line 0, byte at xor x", p, x})
			base[p] ^= byte(x)
		}
	}
	for k := 0; k < n; k++ {
		add(base[:k], variant{"line 0 cut to at bytes", k, 0})
	}
	add(append(bytes.Clone(base), '\n'), variant{"line 0 plus a newline", 0, 1})
	for k := 1; k <= 33; k++ {
		add(append(bytes.Clone(base), make([]byte, k)...), variant{"line 0 plus x zero bytes", 0, k})
		add(append(bytes.Clone(base), bytes.Repeat([]byte(" "), k)...), variant{"line 0 plus x spaces", 0, k})
	}
	if !bytes.Equal(base, lines[0]) {
		t.Fatal("mutations leaked into line 0")
	}
}

// TestRawReplayAllocs pins a raw-tier hit through answerLine — the hot
// path of a byte-identical repeat — at zero allocations, and checks it
// replays the cached reply.
func TestRawReplayAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries at random")
	}
	srv, err := newSolveServer(serveOpts{cacheSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	line := bytes.TrimSuffix(largeFieldLine(t, 7, 200, 20, "CCSGA"), []byte("\n"))
	rb := newReplyBuf()
	srv.answerLine(rb, line)
	want := freshReply(t, line, true)
	if got := srv.answerLine(rb, line); !bytes.Equal(got, want) {
		t.Fatalf("raw-tier replay:\n got %.200s\nwant %.200s", got, want)
	}
	hits := srv.raw.Stats().Hits
	const runs = 200
	if n := testing.AllocsPerRun(runs, func() { srv.answerLine(rb, line) }); n != 0 {
		t.Errorf("a raw-tier hit allocates %v objects, want 0", n)
	}
	if got := srv.raw.Stats().Hits - hits; got != runs+1 {
		t.Errorf("%d raw-tier hits over %d repeats, want all of them", got, runs+1)
	}
}

// TestServeFIPSOnly: where the runtime refuses the raw tier's keyed
// digest (GCM with a fixed nonce, under GODEBUG=fips140=only), ccsd
// -serve exits non-zero naming the refusal instead of serving without
// it. The mode is read at start-up, so the test reruns itself. The
// listen address has no port, so a ccsd that got past the cache would
// exit at once on a listen error rather than serve.
func TestServeFIPSOnly(t *testing.T) {
	if testutil.InRerun() {
		os.Args = []string{"ccsd", "-serve", "-listen", "127.0.0.1"}
		main()
		return
	}
	testutil.SkipWithoutFIPS140(t)
	out, err := testutil.RerunUnder(t, "fips140=only")
	if exit := (*exec.ExitError)(nil); !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("ccsd -serve under fips140=only ended with %v, want exit status 1\n%s", err, out)
	}
	if !bytes.Contains(out, []byte("ccsd: instcache: raw-tier key: crypto/cipher: ")) || !bytes.Contains(out, []byte("FIPS 140-only mode")) {
		t.Fatalf("ccsd -serve under fips140=only did not name the GCM refusal:\n%s", out)
	}
}

// rawKeySink keeps BenchmarkRawKey's digests live.
var rawKeySink [32]byte

// BenchmarkRawKey compares the raw tier's key, ByteCache.Key (a GMAC
// tag), with the SHA-256 digest it replaced, on one compact
// LargeField(200, 20) solve line as ccsd reads it (about 29 KB).
func BenchmarkRawKey(b *testing.B) {
	line := bytes.TrimSuffix(largeFieldLine(b, 1, 200, 20, "CCSGA"), []byte("\n"))
	c, err := instcache.NewBytes(1)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("sha256", func(b *testing.B) {
		b.SetBytes(int64(len(line)))
		b.ReportAllocs()
		for range b.N {
			rawKeySink = sha256.Sum256(line)
		}
	})
	b.Run("bytecache-key", func(b *testing.B) {
		b.SetBytes(int64(len(line)))
		b.ReportAllocs()
		for range b.N {
			rawKeySink = c.Key(line)
		}
	})
}
