package instcache

import (
	"container/list"
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

	mu        sync.Mutex
	capacity  int
	ll        *list.List // front = most recently used
	entries   map[[32]byte]*list.Element
	hits      uint64
	misses    uint64
	evictions uint64
}

type byteEntry struct {
	key [32]byte
	val []byte
}

// NewBytes builds a byte cache bounded to capacity entries (>= 1), with
// a Key function of its own: a fresh AES key from crypto/rand. It fails
// when the runtime refuses GCM with a fixed nonce, as it does under
// GODEBUG=fips140=only; there is no fallback key.
func NewBytes(capacity int) (*ByteCache, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("instcache: capacity %d < 1", capacity)
	}
	var k [16]byte
	if _, err := rand.Read(k[:]); err != nil {
		return nil, fmt.Errorf("instcache: raw-tier key: %w", err)
	}
	block, err := aes.NewCipher(k[:])
	if err != nil {
		return nil, fmt.Errorf("instcache: raw-tier key: %w", err)
	}
	mac, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("instcache: raw-tier key: %w", err)
	}
	return &ByteCache{
		mac:      mac,
		capacity: capacity,
		ll:       list.New(),
		entries:  make(map[[32]byte]*list.Element),
	}, nil
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
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.hits++
	return el.Value.(*byteEntry).val, true
}

// Put stores a private copy of val under key, evicting the least recently
// used entry when full.
func (c *ByteCache) Put(key [32]byte, val []byte) {
	cp := append([]byte(nil), val...)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*byteEntry).val = cp
		return
	}
	for c.ll.Len() >= c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.entries, oldest.Value.(*byteEntry).key)
		c.evictions++
	}
	c.entries[key] = c.ll.PushFront(&byteEntry{key: key, val: cp})
}

// Stats snapshots the counters (Collapsed is always zero: the byte tier
// has no single-flight — concurrent first requests fall through to the
// solution cache, which collapses them).
func (c *ByteCache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Size:      c.ll.Len(),
		Capacity:  c.capacity,
	}
}
