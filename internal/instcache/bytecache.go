package instcache

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"fmt"
	"sync"
)

// ByteCache is a bounded, thread-safe LRU of opaque byte values keyed by a
// 32-byte digest. It is the serve path's first tier: fully rendered
// responses keyed by Key(raw request bytes), so a byte-identical repeat
// request is answered without decoding anything. Near-duplicates (same
// instance, different whitespace or field order) miss here and fall
// through to the canonical-fingerprint Cache.
type ByteCache struct {
	// mac is AES-128-GCM under a key drawn for this cache alone; Key
	// takes its tag over the request line (see Key).
	mac cipher.AEAD

	lru[[32]byte]
}

// NewBytes builds a byte cache bounded to capacity entries (>= 1), with
// a Key function of its own: a fresh AES key from crypto/rand. It fails
// when the runtime refuses GCM with a fixed nonce, as it does under
// GODEBUG=fips140=only; there is no fallback key.
func NewBytes(capacity int) (*ByteCache, error) {
	c := new(ByteCache)
	if err := c.init(capacity); err != nil {
		return nil, err
	}
	var k [16]byte
	if _, err := rand.Read(k[:]); err != nil {
		return nil, fmt.Errorf("instcache: raw-tier key: %w", err)
	}
	block, err := aes.NewCipher(k[:])
	if err != nil {
		return nil, fmt.Errorf("instcache: raw-tier key: %w", err)
	}
	if c.mac, err = cipher.NewGCM(block); err != nil {
		return nil, fmt.Errorf("instcache: raw-tier key: %w", err)
	}
	return c, nil
}

// keyNonce is the one nonce every Key call uses. Key encrypts nothing, so
// reusing it exposes no plaintext; it only makes the tag a fixed mask
// plus GHASH of the line.
var keyNonce [12]byte

// tagScratch holds the buffers Seal appends tags to. Seal is reached
// through an interface, so a stack buffer would escape and cost one
// allocation per Key.
var tagScratch = sync.Pool{New: func() any { return new([16]byte) }}

// Key returns the raw-tier key of line under this cache: the GMAC tag of
// line (AES-128-GCM Seal of an empty plaintext with line as additional
// data), zero-extended to 32 bytes. GHASH is almost-XOR-universal, so two
// distinct lines of at most 8 MiB, chosen without knowledge of the
// cache's random key, share a tag with probability at most
// (2^19+1)/2^128. Callers must keep keys inside the process, so that
// nothing a client sees depends on them (DESIGN.md, "The raw tier's
// key"). Keys of different caches are unrelated. Key allocates nothing
// and is safe for concurrent use.
func (c *ByteCache) Key(line []byte) [32]byte {
	buf := tagScratch.Get().(*[16]byte)
	var key [32]byte
	copy(key[:16], c.mac.Seal(buf[:0], keyNonce[:], nil, line))
	tagScratch.Put(buf)
	return key
}

// Get returns the value stored under key. The returned slice is shared —
// callers must treat it as immutable.
func (c *ByteCache) Get(key [32]byte) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.get(key)
}

// Put stores val under key, evicting the least recently used entry when
// full. The cache keeps val itself, not a copy, and hands it out on every
// hit: the caller must never write val again.
func (c *ByteCache) Put(key [32]byte, val []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.put(key, val)
}

// Stats snapshots the counters (Collapsed is always zero: the byte tier
// has no single-flight — concurrent first requests fall through to the
// solution cache, which collapses them).
func (c *ByteCache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats()
}
