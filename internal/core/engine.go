package core

import (
	"container/heap"
	"fmt"
	"math"
)

// engine runs the discrete-event training replay (SimulateTraining).
// Events are closures scheduled at absolute simulated times; ties in
// time are broken by insertion order, so a replay is deterministic.
type engine struct {
	now     float64
	queue   eventHeap
	nextSeq uint64
	steps   uint64
	maxStep uint64 // safety bound; 0 = unlimited
}

// event is a scheduled closure. It runs at its time with the engine
// clock already advanced.
type event struct {
	time   float64 // absolute simulated seconds
	action func()

	seq   uint64 // insertion order, breaks ties deterministically
	index int    // heap bookkeeping; -1 when not queued
}

// eventHeap orders events by (time, seq).
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// Now reports the current simulated time in seconds.
func (e *engine) Now() float64 { return e.now }

// SetStepLimit bounds the number of events Run will execute; exceeding it
// makes Run return an error. Zero disables the bound.
func (e *engine) SetStepLimit(n uint64) { e.maxStep = n }

// At schedules action to run at absolute time t. Scheduling in the past
// panics: it is always a model bug.
func (e *engine) At(t float64, action func()) *event {
	if t < e.now {
		panic(fmt.Sprintf("core: scheduling at %v before now %v", t, e.now))
	}
	if math.IsNaN(t) {
		panic("core: scheduling at NaN time")
	}
	ev := &event{time: t, action: action, seq: e.nextSeq}
	e.nextSeq++
	heap.Push(&e.queue, ev)
	return ev
}

// After schedules action to run d seconds from now. Negative delays panic.
func (e *engine) After(d float64, action func()) *event {
	return e.At(e.now+d, action)
}

// Run executes events until the queue is empty or until the optional step
// limit is exceeded (returned as an error).
func (e *engine) Run() error {
	for len(e.queue) > 0 {
		if e.maxStep != 0 && e.steps >= e.maxStep {
			return fmt.Errorf("core: step limit %d exceeded at t=%g", e.maxStep, e.now)
		}
		ev := heap.Pop(&e.queue).(*event)
		e.now = ev.time
		e.steps++
		ev.action()
	}
	return nil
}
