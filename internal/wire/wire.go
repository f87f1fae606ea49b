// Package wire implements the length-prefixed binary frame codec spoken
// by ccsd's serve mode alongside the newline-JSON protocol. A frame is
//
//	magic(1) version(1) type(1) uvarint(payload length) payload(...)
//
// The magic byte 0xCC can never begin a JSON request (those start with
// '{' or insignificant whitespace), which is how the two protocols share
// one listener: the server sniffs the first byte of each connection and
// picks the codec.
//
// Reader reuses one payload buffer across frames, so steady-state reads
// allocate nothing; the returned payload is only valid until the next
// ReadFrame. Every malformed input — truncated header or payload,
// oversized or overflowing length varint, wrong magic or version — comes
// back as a clean, classified error, never a panic (FuzzWireFrame keeps
// that claim honest). The package also carries the primitive payload
// helpers (uvarint / float64-bits / length-prefixed bytes) the session
// protocol messages are built from: Append* writers and a sticky-error
// Decoder whose reads are zero-copy views into the payload.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
)

const (
	// Magic is the first byte of every frame.
	Magic = 0xCC
	// Version is the only frame-format version this codec speaks. A
	// reader rejects every other version byte with ErrBadVersion, so the
	// format can evolve without silent misparses.
	Version = 1
)

// Type tags a frame's payload. The codec itself is payload-agnostic;
// the values are defined here so both ends share one namespace.
type Type byte

// Session-protocol frame types. Client-to-server types have the high bit
// clear, server-to-client types have it set.
const (
	// TRegister carries a scheduler name and an instance; the server
	// answers with TSession.
	TRegister Type = 0x01
	// TDelta carries a session ID and a batch of delta operations; the
	// server answers with TSchedule.
	TDelta Type = 0x02
	// TClose ends a session; the server answers with TOK.
	TClose Type = 0x03
	// TStats requests the service counters rendered as JSON in the
	// payload (the one place the binary protocol borrows the JSON DTO:
	// stats are diagnostics, not a hot path).
	TStats Type = 0x04

	// TSession answers TRegister: a session ID plus the initial schedule.
	TSession Type = 0x81
	// TSchedule answers TDelta: the re-solved schedule.
	TSchedule Type = 0x82
	// TOK answers TClose with an empty payload.
	TOK Type = 0x83
	// TError carries a human-readable error message as its payload.
	TError Type = 0xFF
)

// The classified decode failures. Frame-level errors wrap these
// sentinels, so callers classify with errors.Is.
var (
	// ErrBadMagic reports a frame that does not start with Magic.
	ErrBadMagic = errors.New("wire: bad magic byte")
	// ErrBadVersion reports an unsupported frame-format version.
	ErrBadVersion = errors.New("wire: unsupported frame version")
	// ErrTooLarge reports a payload length over the reader's limit.
	ErrTooLarge = errors.New("wire: frame payload too large")
	// ErrBadLength reports a length varint that overflows 64 bits.
	ErrBadLength = errors.New("wire: frame length varint overflows")
	// ErrTruncated reports a payload that ends before its declared
	// structure does (Decoder-level; frame-level truncation is
	// io.ErrUnexpectedEOF).
	ErrTruncated = errors.New("wire: truncated payload")
	// ErrTrailing reports leftover bytes after a payload's declared
	// structure was fully consumed.
	ErrTrailing = errors.New("wire: trailing bytes after payload")
)

// payloadPool recycles payload buffers across Readers, so a server
// churning through many short-lived connections doesn't pay a fresh
// buffer (and its growth reallocations) per connection. Buffers enter
// the pool only through Release.
var payloadPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// Reader decodes frames from a byte stream, reusing one payload buffer.
// Not safe for concurrent use.
type Reader struct {
	r   io.Reader
	br  io.ByteReader
	buf []byte
	max int
}

// NewReader wraps r with a frame decoder that rejects payloads larger
// than maxPayload bytes. Pass a buffered reader: frames are read
// byte-by-byte through io.ByteReader when r provides it (bufio.Reader
// does), falling back to single-byte Reads otherwise.
func NewReader(r io.Reader, maxPayload int) *Reader {
	rd := &Reader{r: r, max: maxPayload, buf: (*payloadPool.Get().(*[]byte))[:0]}
	if br, ok := r.(io.ByteReader); ok {
		rd.br = br
	} else {
		rd.br = &oneByteReader{r: r}
	}
	return rd
}

// Release returns the reader's payload buffer to the shared pool. Call
// it when done with the reader (connection teardown); it invalidates the
// last payload returned by ReadFrame. The reader stays usable — a later
// ReadFrame simply grows a fresh buffer.
func (r *Reader) Release() {
	if r.buf == nil {
		return
	}
	b := r.buf[:0]
	r.buf = nil
	payloadPool.Put(&b)
}

// oneByteReader adapts a plain io.Reader to io.ByteReader.
type oneByteReader struct {
	r io.Reader
	b [1]byte
}

func (o *oneByteReader) ReadByte() (byte, error) {
	if _, err := io.ReadFull(o.r, o.b[:]); err != nil {
		return 0, err
	}
	return o.b[0], nil
}

// ReadFrame reads one frame and returns its type and payload. The
// payload slice aliases the reader's internal buffer and is only valid
// until the next call. A clean end-of-stream before any header byte is
// io.EOF; truncation anywhere after that is io.ErrUnexpectedEOF.
func (r *Reader) ReadFrame() (Type, []byte, error) {
	magic, err := r.br.ReadByte()
	if err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			err = io.EOF // a one-byte read can only be cleanly empty
		}
		return 0, nil, err
	}
	if magic != Magic {
		return 0, nil, fmt.Errorf("%w: 0x%02X", ErrBadMagic, magic)
	}
	version, err := r.br.ReadByte()
	if err != nil {
		return 0, nil, unexpectedEOF(err)
	}
	if version != Version {
		return 0, nil, fmt.Errorf("%w: %d", ErrBadVersion, version)
	}
	typ, err := r.br.ReadByte()
	if err != nil {
		return 0, nil, unexpectedEOF(err)
	}
	n, err := binary.ReadUvarint(r.br)
	if err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, nil, io.ErrUnexpectedEOF
		}
		return 0, nil, fmt.Errorf("%w: %v", ErrBadLength, err)
	}
	if n > uint64(r.max) {
		return 0, nil, fmt.Errorf("%w: %d bytes > limit %d", ErrTooLarge, n, r.max)
	}
	if uint64(cap(r.buf)) < n {
		r.buf = make([]byte, n)
	}
	r.buf = r.buf[:n]
	if _, err := io.ReadFull(r.r, r.buf); err != nil {
		return 0, nil, unexpectedEOF(err)
	}
	return Type(typ), r.buf, nil
}

// unexpectedEOF maps a clean EOF mid-frame to io.ErrUnexpectedEOF.
func unexpectedEOF(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Writer encodes frames onto a byte stream, assembling each frame in one
// reused buffer so a frame reaches the kernel in a single Write. Not
// safe for concurrent use.
type Writer struct {
	w   io.Writer
	buf []byte
}

// NewWriter wraps w with a frame encoder.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// WriteFrame writes one frame.
func (w *Writer) WriteFrame(t Type, payload []byte) error {
	w.buf = append(w.buf[:0], Magic, Version, byte(t))
	w.buf = binary.AppendUvarint(w.buf, uint64(len(payload)))
	w.buf = append(w.buf, payload...)
	_, err := w.w.Write(w.buf)
	return err
}

// AppendUvarint appends v as a uvarint.
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendFloat64 appends f as its 8 IEEE-754 bits, little-endian. NaNs
// and infinities round-trip exactly (tiered tariffs use +Inf bounds).
func AppendFloat64(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// AppendString appends s length-prefixed.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// Decoder consumes a frame payload built from the Append helpers. The
// error is sticky: after the first failure every read returns a zero
// value and Err reports the failure, so call sites read a whole message
// and check once. Reads never panic on malformed input, and byte reads
// are zero-copy views into the payload.
type Decoder struct {
	b   []byte
	err error
}

// NewDecoder decodes the payload b.
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

// Err returns the first decode failure, or nil.
func (d *Decoder) Err() error { return d.err }

// Rest returns every remaining byte (a view, not a copy) and consumes
// it. Used for payloads that end in an opaque blob, like the instance
// JSON inside a TRegister frame.
func (d *Decoder) Rest() []byte {
	if d.err != nil {
		return nil
	}
	b := d.b
	d.b = nil
	return b
}

// Done returns the sticky error, or ErrTrailing if undecoded bytes
// remain — messages must consume their payload exactly.
func (d *Decoder) Done() error {
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("%w: %d byte(s)", ErrTrailing, len(d.b))
	}
	return nil
}

func (d *Decoder) fail() {
	if d.err == nil {
		d.err = ErrTruncated
	}
}

// Byte reads one byte.
func (d *Decoder) Byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 1 {
		d.fail()
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

// Uvarint reads a uvarint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		if d.err == nil {
			if n < 0 {
				d.err = fmt.Errorf("%w: uvarint", ErrBadLength)
			} else {
				d.err = ErrTruncated
			}
		}
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Float64 reads 8 little-endian IEEE-754 bits.
func (d *Decoder) Float64() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 8 {
		d.fail()
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

// Bytes reads a length-prefixed byte slice as a view into the payload.
func (d *Decoder) Bytes() []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if uint64(len(d.b)) < n {
		d.fail()
		return nil
	}
	v := d.b[:n]
	d.b = d.b[n:]
	return v
}

// String reads a length-prefixed string (this one copies).
func (d *Decoder) String() string { return string(d.Bytes()) }
