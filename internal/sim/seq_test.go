package sim

// Tests for the event sequence counter: seq exists only to FIFO-order
// events that coexist in the heap, rebases whenever the heap drains (so it
// cannot creep toward wraparound over a long simulation), and keeps the
// FIFO tie-break correct even when its value sits near the top of the
// uint64 range.

import (
	"math"
	"testing"
)

func TestSeqRebasesWhenHeapDrains(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 100; i++ {
		e.Schedule(0, func(uint64) {})
	}
	if e.seq != 100 {
		t.Fatalf("seq = %d after 100 schedules, want 100", e.seq)
	}
	e.Step() // drains all 100
	if e.Pending() != 0 {
		t.Fatalf("heap not drained: %d pending", e.Pending())
	}
	e.Schedule(1, func(uint64) {})
	if e.seq != 1 {
		t.Fatalf("seq = %d after drain+schedule, want rebase to 1", e.seq)
	}
}

// TestSeqOrderingNearMax plants the counter just below 2^64 and verifies
// FIFO ordering among same-cycle events survives: the batch stays below the
// wrap (rebasing means a wrap would need 2^64 events in the heap at once),
// and the next drain rebases the counter away from the edge.
func TestSeqOrderingNearMax(t *testing.T) {
	e := NewEngine()
	var order []int
	// First event occupies the heap (seq rebases to 1 here), then the
	// counter is planted just below the edge for the rest of the batch.
	e.Schedule(2, func(uint64) { order = append(order, 0) })
	e.seq = math.MaxUint64 - 7
	for i := 1; i < 8; i++ {
		i := i
		e.Schedule(2, func(uint64) { order = append(order, i) })
	}
	if e.seq != math.MaxUint64 {
		t.Fatalf("seq = %d, want MaxUint64", e.seq)
	}
	for i := 0; i < 3; i++ {
		e.Step()
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("same-cycle events out of FIFO order near MaxUint64: %v", order)
		}
	}
	e.Schedule(1, func(uint64) {})
	if e.seq != 1 {
		t.Fatalf("seq = %d after drain, want rebase to 1", e.seq)
	}
}

// TestZeroDelayFIFODuringEventPhase is the heap-rewrite regression the
// original container/heap version was also subject to: events scheduled
// with zero delay while the event phase is draining must run this cycle, in
// scheduling order, interleaved after the already-queued same-cycle events.
func TestZeroDelayFIFODuringEventPhase(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(1, func(uint64) {
		for i := 0; i < 5; i++ {
			i := i
			e.Schedule(0, func(uint64) { order = append(order, 10+i) })
		}
	})
	e.Schedule(1, func(uint64) { order = append(order, 0) })
	for i := 0; i < 3; i++ {
		e.Step()
	}
	want := []int{0, 10, 11, 12, 13, 14}
	if len(order) != len(want) {
		t.Fatalf("drained %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("zero-delay drain order %v, want %v", order, want)
		}
	}
}

// TestPopZeroesSlot guards the GC-ability property: after an event runs,
// no backing array (wheel buckets or the overflow heap, which has
// promoted its far-future events by then) still references its closure.
func TestPopZeroesSlot(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 4; i++ {
		e.Schedule(0, func(uint64) {})
		e.Schedule(2*wheelSize, func(uint64) {})
	}
	e.Run(2*wheelSize+1, nil)
	if e.Pending() != 0 {
		t.Fatalf("%d events still pending", e.Pending())
	}
	checkSlice := func(q []event, where string) {
		for i, ev := range q[:cap(q)] {
			if ev.fn != nil {
				t.Fatalf("%s slot %d still references a retired closure", where, i)
			}
		}
	}
	checkSlice(e.sched.overflow, "overflow")
	for b := range e.sched.buckets {
		checkSlice(e.sched.buckets[b], "bucket")
	}
}
