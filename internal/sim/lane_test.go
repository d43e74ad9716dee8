package sim

// Tests for the completion lane (Engine.Complete): where completions sit in
// a cycle, how fast-forward treats them, Pending accounting, and the delay
// bounds.

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// TestCompletionAfterEventsBeforeTicks: a cycle runs its events (including
// zero-delay events scheduled while draining), then its completions in the
// order they were requested, whatever their delays, then its tickers.
func TestCompletionAfterEventsBeforeTicks(t *testing.T) {
	e := NewEngine()
	var log []string
	rec := func(s string) func(uint64) {
		return func(now uint64) { log = append(log, fmt.Sprintf("%s@%d", s, now)) }
	}
	e.Register(tickFunc(func(now uint64) {
		if now == 2 {
			e.Complete(1, rec("c3"))
		}
		if now == 3 {
			log = append(log, "tick@3")
		}
	}))
	e.Complete(3, rec("c1"))
	e.Schedule(3, func(now uint64) {
		rec("ev1")(now)
		e.Schedule(0, rec("ev3"))
	})
	e.Schedule(1, func(uint64) { e.Complete(2, rec("c2")) })
	e.Schedule(3, rec("ev2"))
	for i := 0; i < 4; i++ {
		e.Step()
	}
	want := []string{"ev1@3", "ev2@3", "ev3@3", "c1@3", "c2@3", "c3@3", "tick@3"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("cycle 3 ran %v, want %v", log, want)
	}
}

// laneTrace runs a fixed mix of events and completions behind an idle
// ticker and returns what fired when, plus the cycles Run took.
func laneTrace(t *testing.T, skip bool) ([]string, uint64) {
	e := NewEngine()
	e.SetIdleSkip(skip)
	e.Register(&idleProbe{name: "p"})
	var log []string
	rec := func(s string) func(uint64) {
		return func(now uint64) { log = append(log, fmt.Sprintf("%s@%d", s, now)) }
	}
	e.Complete(63, rec("c63"))
	e.Schedule(10, func(now uint64) {
		rec("ev")(now)
		e.Complete(50, rec("c60"))
		e.Complete(1, rec("c11"))
	})
	cycles, done := e.Run(1000, func() bool { return len(log) == 4 })
	if !done {
		t.Fatalf("skip=%v: run ended after %d cycles with %v", skip, cycles, log)
	}
	return log, cycles
}

// TestFastForwardLandsOnCompletion: with every ticker idle, the engine
// jumps to the next pending completion, never past it, and the result is
// the per-cycle stepping trace.
func TestFastForwardLandsOnCompletion(t *testing.T) {
	log, cycles := laneTrace(t, true)
	want := []string{"ev@10", "c11@11", "c60@60", "c63@63"}
	if !reflect.DeepEqual(log, want) || cycles != 64 {
		t.Fatalf("fast-forward ran %v in %d cycles, want %v in 64", log, cycles, want)
	}
	stepLog, stepCycles := laneTrace(t, false)
	if !reflect.DeepEqual(log, stepLog) || cycles != stepCycles {
		t.Fatalf("fast-forward %v (%d cycles) differs from stepping %v (%d cycles)",
			log, cycles, stepLog, stepCycles)
	}
}

// TestFastForwardCompletionOnly: completions alone — no event pending, an
// idle ticker — pin each jump to the lane's next occupied cycle, around the
// whole ring. The only work is an idle ticker's Tick, which requests more
// completions at random delays, so every landing cycle is chosen by the
// lane's occupancy scan.
func TestFastForwardCompletionOnly(t *testing.T) {
	e := NewEngine()
	rng := rand.New(rand.NewSource(11))
	pushed, ran := 0, 0
	var landed []uint64
	ranAt := map[uint64]bool{}
	var tick func(now uint64)
	tick = func(now uint64) {
		landed = append(landed, now)
		for k := rng.Intn(3); k >= 0 && pushed < 500; k-- {
			at := now + 1 + uint64(rng.Intn(laneSize-1))
			pushed++
			e.Complete(at-now, func(got uint64) {
				if got != at {
					t.Fatalf("completion due at %d ran at %d", at, got)
				}
				ran++
				ranAt[got] = true
			})
		}
	}
	e.Register(&funcIdle{tick: tick})
	tick(0) // the first requests; the engine skips straight to them
	e.Run(1_000_000, func() bool { return pushed == 500 && e.Pending() == 0 })
	if ran != 500 {
		t.Fatalf("%d of 500 completions ran", ran)
	}
	// After cycle 0 the engine steps only where a completion lands.
	for _, at := range landed[1:] {
		if !ranAt[at] {
			t.Fatalf("stepped cycle %d, where no completion was due", at)
		}
	}
}

// funcIdle is an always-idle ticker whose Tick runs a function.
type funcIdle struct{ tick func(uint64) }

func (f *funcIdle) Name() string    { return "funcIdle" }
func (f *funcIdle) Tick(now uint64) { f.tick(now) }
func (f *funcIdle) Idle() bool      { return true }

func TestPendingCountsCompletions(t *testing.T) {
	e := NewEngine()
	e.Schedule(5, func(uint64) {})
	e.Complete(1, func(uint64) {})
	e.Complete(1, func(uint64) {})
	e.Complete(63, func(uint64) {})
	if got := e.Pending(); got != 4 {
		t.Fatalf("Pending = %d with 1 event and 3 completions, want 4", got)
	}
	e.Step()
	e.Step() // cycle 1 drains its two completions
	if got := e.Pending(); got != 2 {
		t.Fatalf("Pending = %d after cycle 1, want 2", got)
	}
	e.Run(100, func() bool { return e.Pending() == 0 })
	if e.Now() != 64 {
		t.Fatalf("lane drained at cycle %d, want 64 (last completion at 63)", e.Now())
	}
}

func TestCompleteDelayBounds(t *testing.T) {
	for _, d := range []uint64{0, laneSize, laneSize + 1, 1 << 40} {
		e := NewEngine()
		e.Schedule(2, func(uint64) { e.Complete(d, func(uint64) {}) })
		_, _, err := e.RunE(10, nil)
		var pe *ProtocolError
		if !errors.As(err, &pe) || pe.Component != "sim.engine" || pe.Cycle != 2 {
			t.Errorf("Complete(%d): RunE error %v, want a sim.engine ProtocolError at cycle 2", d, err)
		}
	}
	for _, d := range []uint64{1, laneSize - 1} {
		e := NewEngine()
		fired := uint64(0)
		e.Complete(d, func(now uint64) { fired = now })
		if _, _, err := e.RunE(laneSize, nil); err != nil || fired != d {
			t.Errorf("Complete(%d): err %v, fired at %d", d, err, fired)
		}
	}
}
