//go:build !race

// Allocation-discipline tests, excluded under the race detector (the race
// runtime instruments allocations and makes AllocsPerRun counts meaningless).
package sim

import "testing"

type nopHandler struct{ fired int }

func (h *nopHandler) HandleEvent(now uint64, op uint8, arg uint64) { h.fired++ }

func TestScheduleCallZeroAlloc(t *testing.T) {
	eng := NewEngine()
	h := &nopHandler{}

	// Warm the event heap so steady-state runs never grow it.
	for i := 0; i < 64; i++ {
		eng.ScheduleCall(1, h, 0, uint64(i))
	}
	eng.Step()
	eng.Step()

	if avg := testing.AllocsPerRun(1000, func() {
		eng.ScheduleCall(1, h, 0, 7)
		eng.Step()
		eng.Step()
	}); avg != 0 {
		t.Fatalf("ScheduleCall steady state allocated %.1f per op, want 0", avg)
	}
	if h.fired == 0 {
		t.Fatal("handler never fired")
	}
}

func TestCompleteZeroAlloc(t *testing.T) {
	eng := NewEngine()
	fired := 0
	fn := func(uint64) { fired++ }

	// Warm every lane bucket so steady-state runs never grow one.
	for i := 0; i < 2*laneSize; i++ {
		eng.Complete(1, fn)
		eng.Complete(laneSize-1, fn)
		eng.Step()
	}

	if avg := testing.AllocsPerRun(1000, func() {
		eng.Complete(1, fn)
		eng.Complete(laneSize-1, fn)
		eng.Step()
	}); avg != 0 {
		t.Fatalf("Complete steady state allocated %.1f per op, want 0", avg)
	}
	if fired == 0 {
		t.Fatal("completion never fired")
	}
}
