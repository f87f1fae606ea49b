package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math"
	"strings"
	"testing"
)

// TestFrameRoundTrip pins the codec on representative frames: every
// type, payload sizes from empty through multi-kilobyte, and binary
// payloads including newline and magic bytes (the framing must be
// payload-transparent).
func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{
		nil,
		{},
		[]byte("x"),
		[]byte("hello frame"),
		{Magic, Magic, '\n', 0, 0xFF},
		bytes.Repeat([]byte{0xAB}, 5000),
	}
	types := []Type{TRegister, TDelta, TClose, TStats, TSession, TSchedule, TOK, TError}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i, p := range payloads {
		if err := w.WriteFrame(types[i%len(types)], p); err != nil {
			t.Fatal(err)
		}
	}
	r := NewReader(bufio.NewReader(&buf), 1<<20)
	for i, p := range payloads {
		typ, got, err := r.ReadFrame()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if typ != types[i%len(types)] {
			t.Errorf("frame %d: type 0x%02X, want 0x%02X", i, typ, types[i%len(types)])
		}
		if !bytes.Equal(got, p) {
			t.Errorf("frame %d: payload %q, want %q", i, got, p)
		}
	}
	if _, _, err := r.ReadFrame(); err != io.EOF {
		t.Errorf("end of stream: %v, want io.EOF", err)
	}
}

// TestReaderReusesBuffer pins the zero-allocation claim: the payload
// slice returned by consecutive reads aliases one buffer.
func TestReaderReusesBuffer(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := 0; i < 3; i++ {
		if err := w.WriteFrame(TDelta, []byte("payload")); err != nil {
			t.Fatal(err)
		}
	}
	r := NewReader(bufio.NewReader(&buf), 1024)
	_, first, err := r.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	firstPtr := &first[0]
	_, second, err := r.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if &second[0] != firstPtr {
		t.Error("second read did not reuse the payload buffer")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := r.ReadFrame(); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		buf.Reset()
		_ = w.WriteFrame(TDelta, []byte("payload"))
		r2 := r // keep r referenced
		_ = r2
	})
	_ = allocs // AllocsPerRun over a drained stream is noisy; the pointer check above is the pin
}

// TestReaderRejects pins the classified decode failures.
func TestReaderRejects(t *testing.T) {
	frame := func(bs ...byte) []byte { return bs }
	good := func() []byte {
		var b bytes.Buffer
		_ = NewWriter(&b).WriteFrame(TDelta, []byte("ok"))
		return b.Bytes()
	}()
	cases := []struct {
		name string
		in   []byte
		want error
	}{
		{"bad magic", frame('{', Version, 1, 0), ErrBadMagic},
		{"bad version", frame(Magic, 99, 1, 0), ErrBadVersion},
		{"truncated header", frame(Magic), io.ErrUnexpectedEOF},
		{"truncated after version", frame(Magic, Version), io.ErrUnexpectedEOF},
		{"missing length", frame(Magic, Version, 1), io.ErrUnexpectedEOF},
		{"truncated varint", frame(Magic, Version, 1, 0x80), io.ErrUnexpectedEOF},
		{"overflowing varint", frame(Magic, Version, 1,
			0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF), ErrBadLength},
		{"oversized", frame(Magic, Version, 1, 0xAC, 0x02), ErrTooLarge}, // length 300 > max 256
		{"truncated payload", frame(Magic, Version, 1, 5, 'a', 'b'), io.ErrUnexpectedEOF},
		{"clean empty", nil, io.EOF},
		{"garbage after good frame", append(append([]byte{}, good...), 0x00), ErrBadMagic},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewReader(bufio.NewReader(bytes.NewReader(tc.in)), 256)
			var err error
			for i := 0; i < 4; i++ { // skip leading good frames
				if _, _, err = r.ReadFrame(); err != nil {
					break
				}
			}
			if !errors.Is(err, tc.want) {
				t.Errorf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestReaderUnbuffered covers the one-byte-reader fallback for plain
// io.Readers.
func TestReaderUnbuffered(t *testing.T) {
	var buf bytes.Buffer
	if err := NewWriter(&buf).WriteFrame(TOK, []byte("plain")); err != nil {
		t.Fatal(err)
	}
	r := NewReader(struct{ io.Reader }{&buf}, 1024) // strip ByteReader
	typ, p, err := r.ReadFrame()
	if err != nil || typ != TOK || string(p) != "plain" {
		t.Errorf("ReadFrame = %v %q %v", typ, p, err)
	}
}

// TestDecoderRoundTrip pins the payload primitives: what Append* writes,
// Decoder reads back exactly, including NaN and ±Inf float bits.
func TestDecoderRoundTrip(t *testing.T) {
	var b []byte
	b = AppendUvarint(b, 0)
	b = AppendUvarint(b, 1<<63)
	b = AppendFloat64(b, 3.14159)
	b = AppendFloat64(b, math.Inf(1))
	b = AppendFloat64(b, math.NaN())
	b = AppendString(b, "")
	b = AppendString(b, "device-007")
	b = AppendString(b, "\x00\x01\x02") // Bytes reads the same length-prefixed form
	d := NewDecoder(b)
	if v := d.Uvarint(); v != 0 {
		t.Errorf("uvarint = %d", v)
	}
	if v := d.Uvarint(); v != 1<<63 {
		t.Errorf("uvarint = %d", v)
	}
	if v := d.Float64(); v != 3.14159 {
		t.Errorf("float = %v", v)
	}
	if v := d.Float64(); !math.IsInf(v, 1) {
		t.Errorf("inf = %v", v)
	}
	if v := d.Float64(); !math.IsNaN(v) {
		t.Errorf("nan = %v", v)
	}
	if v := d.String(); v != "" {
		t.Errorf("empty string = %q", v)
	}
	if v := d.String(); v != "device-007" {
		t.Errorf("string = %q", v)
	}
	if v := d.Bytes(); !bytes.Equal(v, []byte{0, 1, 2}) {
		t.Errorf("bytes = %v", v)
	}
	if err := d.Done(); err != nil {
		t.Errorf("Done = %v", err)
	}
}

// TestDecoderStickyError pins the sticky-error contract: the first
// failure wins, later reads are zero, Done reports it.
func TestDecoderStickyError(t *testing.T) {
	d := NewDecoder([]byte{0x05, 'a'}) // claims 5 bytes, has 1
	if v := d.Bytes(); v != nil {
		t.Errorf("truncated Bytes = %q", v)
	}
	if v := d.Uvarint(); v != 0 {
		t.Errorf("read after error = %d", v)
	}
	if v := d.Float64(); v != 0 {
		t.Errorf("read after error = %v", v)
	}
	if !errors.Is(d.Done(), ErrTruncated) {
		t.Errorf("Done = %v, want ErrTruncated", d.Done())
	}

	// Trailing bytes are an error too.
	d2 := NewDecoder([]byte{1, 99})
	if v := d2.Uvarint(); v != 1 {
		t.Fatalf("uvarint = %d", v)
	}
	if !errors.Is(d2.Done(), ErrTrailing) {
		t.Errorf("Done with leftovers = %v, want ErrTrailing", d2.Done())
	}

	// Rest consumes everything and satisfies Done.
	d3 := NewDecoder([]byte{1, 2, 3})
	if got := d3.Rest(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Rest = %v", got)
	}
	if err := d3.Done(); err != nil {
		t.Errorf("Done after Rest = %v", err)
	}
}

// TestDecoderUvarintOverflow pins classification of an overflowing
// in-payload uvarint.
func TestDecoderUvarintOverflow(t *testing.T) {
	d := NewDecoder(bytes.Repeat([]byte{0xFF}, 11))
	_ = d.Uvarint()
	if !errors.Is(d.Err(), ErrBadLength) {
		t.Errorf("err = %v, want ErrBadLength", d.Err())
	}
}

// TestWriterSingleWrite pins that a frame reaches the transport in one
// Write call (no header/payload interleaving on the socket).
func TestWriterSingleWrite(t *testing.T) {
	cw := &countingWriter{}
	w := NewWriter(cw)
	if err := w.WriteFrame(TDelta, []byte(strings.Repeat("p", 100))); err != nil {
		t.Fatal(err)
	}
	if cw.calls != 1 {
		t.Errorf("frame took %d writes, want 1", cw.calls)
	}
}

type countingWriter struct{ calls int }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.calls++
	return len(p), nil
}
