// Package sim is a minimal deterministic discrete-event simulation engine:
// a virtual clock and a priority queue of scheduled callbacks. The
// network-lifetime simulator (package mwrsn) builds on it.
//
// The engine is single-goroutine and deterministic: events at equal times
// fire in scheduling order.
package sim

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
)

type event struct {
	time float64
	seq  int64 // tie-break: FIFO among equal times
	fn   func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Engine is the simulation core. The zero value is not usable; call New.
type Engine struct {
	now     float64
	seq     int64
	pending eventHeap
}

// New returns an engine with the clock at zero.
func New() *Engine { return &Engine{} }

// Now returns the current virtual time, seconds.
func (e *Engine) Now() float64 { return e.now }

// Schedule runs fn after delay seconds of virtual time. A negative or NaN
// delay is an error.
func (e *Engine) Schedule(delay float64, fn func()) error {
	if delay < 0 || math.IsNaN(delay) {
		return fmt.Errorf("sim: invalid delay %v", delay)
	}
	return e.ScheduleAt(e.now+delay, fn)
}

// ScheduleAt runs fn at absolute virtual time t (>= Now).
func (e *Engine) ScheduleAt(t float64, fn func()) error {
	if fn == nil {
		return errors.New("sim: nil event function")
	}
	if t < e.now || math.IsNaN(t) {
		return fmt.Errorf("sim: time %v before now %v", t, e.now)
	}
	e.seq++
	heap.Push(&e.pending, &event{time: t, seq: e.seq, fn: fn})
	return nil
}

// Step fires the next event. It reports false when no events remain.
func (e *Engine) Step() bool {
	if e.pending.Len() == 0 {
		return false
	}
	ev := heap.Pop(&e.pending).(*event)
	e.now = ev.time
	ev.fn()
	return true
}

// RunUntil fires events in order until the clock would pass `until` or no
// events remain, then advances the clock to `until` (if beyond it).
// It returns the number of events fired.
func (e *Engine) RunUntil(until float64) int {
	fired := 0
	for e.pending.Len() > 0 && e.pending[0].time <= until {
		e.Step()
		fired++
	}
	if until > e.now {
		e.now = until
	}
	return fired
}
