package core

import (
	"container/heap"
	"math"
	"testing"
)

// Cancel removes a pending event. Cancelling an already-fired or
// already-cancelled event is a no-op and returns false.
func (e *engine) Cancel(ev *event) bool {
	if ev == nil || ev.index < 0 || ev.index >= len(e.queue) || e.queue[ev.index] != ev {
		return false
	}
	heap.Remove(&e.queue, ev.index)
	ev.index = -1
	return true
}

// Steps reports how many events have been executed.
func (e *engine) Steps() uint64 { return e.steps }

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := &engine{}
	var order []float64
	for _, d := range []float64{3, 1, 2, 1.5} {
		d := d
		e.At(d, func() { order = append(order, d) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 1.5, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order[%d] = %v, want %v (full: %v)", i, order[i], v, order)
		}
	}
	if e.Now() != 3 {
		t.Errorf("Now() = %v, want 3", e.Now())
	}
}

func TestEngineTieBreakIsInsertionOrder(t *testing.T) {
	e := &engine{}
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break violated at %d: got %v", i, order)
		}
	}
}

func TestEngineAfterChainsRelativeDelays(t *testing.T) {
	e := &engine{}
	var finished float64
	e.After(1, func() {
		e.After(2, func() {
			finished = e.Now()
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if finished != 3 {
		t.Errorf("nested After finished at %v, want 3", finished)
	}
}

func TestEngineSchedulingInPastPanics(t *testing.T) {
	e := &engine{}
	e.At(2, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(1, func() {})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestEngineNaNTimePanics(t *testing.T) {
	e := &engine{}
	defer func() {
		if recover() == nil {
			t.Error("NaN time did not panic")
		}
	}()
	e.At(math.NaN(), func() {})
}

func TestEngineCancel(t *testing.T) {
	e := &engine{}
	fired := false
	ev := e.At(1, func() { fired = true })
	if !e.Cancel(ev) {
		t.Fatal("Cancel returned false for pending event")
	}
	if e.Cancel(ev) {
		t.Error("double Cancel returned true")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Error("cancelled event fired")
	}
}

func TestEngineCancelMiddleOfHeap(t *testing.T) {
	e := &engine{}
	var order []int
	evs := make([]*event, 5)
	for i := 0; i < 5; i++ {
		i := i
		evs[i] = e.At(float64(i), func() { order = append(order, i) })
	}
	e.Cancel(evs[2])
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 3, 4}
	if len(order) != len(want) {
		t.Fatalf("got %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("got %v, want %v", order, want)
		}
	}
}

func TestEngineStepLimit(t *testing.T) {
	e := &engine{}
	e.SetStepLimit(10)
	var tick func()
	tick = func() { e.After(1, tick) }
	e.After(1, tick)
	if err := e.Run(); err == nil {
		t.Fatal("unbounded self-rescheduling did not hit step limit")
	}
}
