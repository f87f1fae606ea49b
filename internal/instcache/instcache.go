package instcache

import (
	"container/list"
	"fmt"
	"sync"
)

// Stats is a point-in-time snapshot of cache effectiveness counters.
type Stats struct {
	// Hits counts lookups answered from the cache.
	Hits uint64
	// Misses counts lookups that ran the solver.
	Misses uint64
	// Collapsed counts lookups that joined another caller's in-flight
	// solve instead of running a duplicate (they also count as hits once
	// the leader's result arrives).
	Collapsed uint64
	// Evictions counts entries dropped to respect the capacity bound.
	Evictions uint64
	// Size and Capacity are the current and maximum entry counts.
	Size     int
	Capacity int
}

// lru is the bounded LRU of byte values both tiers keep: a map into a
// recency list whose front is the most recently used entry. It locks
// nothing itself; its owner holds mu around every call. Values are
// stored and handed out as they are, never copied.
type lru[K comparable] struct {
	mu        sync.Mutex
	capacity  int
	ll        list.List
	entries   map[K]*list.Element
	hits      uint64
	misses    uint64
	evictions uint64
}

type lruEntry[K comparable] struct {
	key K
	val []byte
}

// init bounds c to capacity entries (>= 1).
func (c *lru[K]) init(capacity int) error {
	if capacity < 1 {
		return fmt.Errorf("instcache: capacity %d < 1", capacity)
	}
	c.capacity = capacity
	c.entries = make(map[K]*list.Element)
	return nil
}

// get returns the value under key, counting a hit or a miss.
func (c *lru[K]) get(key K) ([]byte, bool) {
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.hits++
	return el.Value.(*lruEntry[K]).val, true
}

// put stores val under key, evicting the least recently used entry
// when full.
func (c *lru[K]) put(key K, val []byte) {
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*lruEntry[K]).val = val
		return
	}
	for c.ll.Len() >= c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.entries, oldest.Value.(*lruEntry[K]).key)
		c.evictions++
	}
	c.entries[key] = c.ll.PushFront(&lruEntry[K]{key: key, val: val})
}

// stats snapshots the counters.
func (c *lru[K]) stats() Stats {
	return Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Size:      c.ll.Len(),
		Capacity:  c.capacity,
	}
}

// flight is one in-progress solve; waiters block on done and then read the
// result fields (written once, before done is released).
type flight struct {
	done sync.WaitGroup
	val  []byte
	err  error
}

// Cache is the solution tier: a bounded, thread-safe LRU of rendered
// replies under the canonical fingerprint Key, with single-flight
// collapsing of concurrent duplicate solves. Errors are never cached: a
// failed solve leaves the key absent so the next request retries.
// Stored replies are shared with every caller, so nobody may write them.
type Cache struct {
	lru[Key]
	inflight  map[Key]*flight
	collapsed uint64
}

// New builds a cache bounded to capacity entries (>= 1).
func New(capacity int) (*Cache, error) {
	c := &Cache{inflight: make(map[Key]*flight)}
	if err := c.init(capacity); err != nil {
		return nil, err
	}
	return c, nil
}

// Do returns the reply stored under key, or runs solve to produce (and
// store) it. The cached return reports whether the reply came from the
// cache or a collapsed in-flight solve rather than this call's own solve.
// Concurrent calls with the same key share a single solve. The slice
// solve returns becomes the entry and is handed to every caller as it is,
// so neither solve nor any caller may write it afterwards.
func (c *Cache) Do(key Key, solve func() ([]byte, error)) ([]byte, bool, error) {
	c.mu.Lock()
	if fl, ok := c.inflight[key]; ok {
		c.collapsed++
		c.hits++
		c.mu.Unlock()
		fl.done.Wait()
		if fl.err != nil {
			return nil, false, fl.err
		}
		return fl.val, true, nil
	}
	if val, ok := c.get(key); ok {
		c.mu.Unlock()
		return val, true, nil
	}
	fl := new(flight)
	fl.done.Add(1)
	c.inflight[key] = fl
	c.mu.Unlock()

	fl.val, fl.err = solve()

	c.mu.Lock()
	delete(c.inflight, key)
	if fl.err == nil {
		c.put(key, fl.val)
	}
	c.mu.Unlock()
	fl.done.Done()
	if fl.err != nil {
		return nil, false, fl.err
	}
	return fl.val, false, nil
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats()
	st.Collapsed = c.collapsed
	return st
}
