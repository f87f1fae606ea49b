package instcache

import (
	"container/list"
	"fmt"
	"sync"

	"repro/internal/core"
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

type entry struct {
	key   Key
	sched *core.Schedule
	cost  float64
}

// flight is one in-progress solve; waiters block on done and then read the
// result fields (written once, before done is closed).
type flight struct {
	done  chan struct{}
	sched *core.Schedule
	cost  float64
	err   error
}

// Cache is a bounded, thread-safe LRU of scheduler solutions with
// single-flight collapsing of concurrent duplicate solves. Errors are
// never cached: a failed solve leaves the key absent so the next request
// retries. Returned schedules are private copies — callers may mutate
// them freely.
type Cache struct {
	mu        sync.Mutex
	capacity  int
	ll        *list.List // front = most recently used
	entries   map[Key]*list.Element
	inflight  map[Key]*flight
	hits      uint64
	misses    uint64
	collapsed uint64
	evictions uint64
}

// New builds a cache bounded to capacity entries (>= 1).
func New(capacity int) (*Cache, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("instcache: capacity %d < 1", capacity)
	}
	return &Cache{
		capacity: capacity,
		ll:       list.New(),
		entries:  make(map[Key]*list.Element),
		inflight: make(map[Key]*flight),
	}, nil
}

// Do returns the cached solution for key, or runs solve to produce (and
// cache) it. The cached return reports whether the solution came from the
// cache or a collapsed in-flight solve rather than this call's own solve.
// Concurrent calls with the same key share a single solve; each caller
// receives its own copy of the schedule.
func (c *Cache) Do(key Key, solve func() (*core.Schedule, float64, error)) (*core.Schedule, float64, bool, error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*entry)
		c.hits++
		sched, cost := cloneSchedule(e.sched), e.cost
		c.mu.Unlock()
		return sched, cost, true, nil
	}
	if fl, ok := c.inflight[key]; ok {
		c.collapsed++
		c.hits++
		c.mu.Unlock()
		<-fl.done
		if fl.err != nil {
			return nil, 0, false, fl.err
		}
		return cloneSchedule(fl.sched), fl.cost, true, nil
	}
	c.misses++
	fl := &flight{done: make(chan struct{})}
	c.inflight[key] = fl
	c.mu.Unlock()

	fl.sched, fl.cost, fl.err = solve()

	c.mu.Lock()
	delete(c.inflight, key)
	if fl.err == nil {
		c.store(key, fl.sched, fl.cost)
	}
	c.mu.Unlock()
	close(fl.done)
	if fl.err != nil {
		return nil, 0, false, fl.err
	}
	// fl.sched is shared read-only with any waiters once done is closed;
	// the leader hands its caller a private copy like everyone else.
	return cloneSchedule(fl.sched), fl.cost, false, nil
}

// store inserts a private copy of sched under key, evicting the least
// recently used entry when full. Caller holds c.mu.
func (c *Cache) store(key Key, sched *core.Schedule, cost float64) {
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*entry)
		e.sched, e.cost = cloneSchedule(sched), cost
		return
	}
	for c.ll.Len() >= c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.entries, oldest.Value.(*entry).key)
		c.evictions++
	}
	c.entries[key] = c.ll.PushFront(&entry{key: key, sched: cloneSchedule(sched), cost: cost})
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		Collapsed: c.collapsed,
		Evictions: c.evictions,
		Size:      c.ll.Len(),
		Capacity:  c.capacity,
	}
}

// cloneSchedule deep-copies a schedule so cache entries and caller copies
// never alias.
func cloneSchedule(s *core.Schedule) *core.Schedule {
	if s == nil {
		return nil
	}
	out := &core.Schedule{Coalitions: make([]core.Coalition, len(s.Coalitions))}
	for i, co := range s.Coalitions {
		out.Coalitions[i] = core.Coalition{
			Charger: co.Charger,
			Members: append([]int(nil), co.Members...),
		}
	}
	return out
}
