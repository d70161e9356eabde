// Package sim provides a small discrete-event simulation engine with a
// virtual clock. The RAS control loops — hourly async solves, minute-level
// mover reactions, health-check ticks, maintenance waves, diurnal capacity
// requests — are scheduled as events against virtual time, which lets a
// month of region operation run in seconds of wall-clock time.
package sim

import (
	"container/heap"
	"fmt"
)

// Time is virtual time in seconds since the simulation epoch (a Monday
// 00:00, so workload.DiurnalRate lines up with weekdays).
type Time = int64

// Common durations in seconds.
const (
	Minute Time = 60
	Hour   Time = 3600
	Day    Time = 24 * Hour
	Week   Time = 7 * Day
)

type event struct {
	at  Time
	seq uint64 // FIFO tie-break for equal timestamps
	fn  func(now Time)
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// Engine is a single-threaded discrete-event executor.
type Engine struct {
	now    Time
	seq    uint64
	events eventHeap
	ran    int
}

// NewEngine creates an engine at time 0.
func NewEngine() *Engine { return &Engine{} }

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Processed reports how many events have run.
func (e *Engine) Processed() int { return e.ran }

// At schedules fn at absolute virtual time t. Scheduling in the past panics:
// it would silently reorder causality.
func (e *Engine) At(t Time, fn func(now Time)) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %d before now %d", t, e.now))
	}
	e.seq++
	heap.Push(&e.events, event{at: t, seq: e.seq, fn: fn})
}

// After schedules fn d seconds from now.
func (e *Engine) After(d Time, fn func(now Time)) { e.At(e.now+d, fn) }

// Every schedules fn at now+d, then every d seconds until the engine stops
// being run. fn runs before the next occurrence is scheduled.
func (e *Engine) Every(d Time, fn func(now Time)) {
	if d <= 0 {
		panic("sim: non-positive period")
	}
	var tick func(now Time)
	tick = func(now Time) {
		fn(now)
		e.At(now+d, tick)
	}
	e.At(e.now+d, tick)
}

// RunUntil executes events in timestamp order until the queue is empty or
// the next event is after t; the clock then rests at t.
func (e *Engine) RunUntil(t Time) {
	for len(e.events) > 0 && e.events[0].at <= t {
		ev := heap.Pop(&e.events).(event)
		e.now = ev.at
		e.ran++
		ev.fn(e.now)
	}
	if t > e.now {
		e.now = t
	}
}
