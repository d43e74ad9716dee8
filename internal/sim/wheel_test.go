package sim

// Tests for the time-wheel scheduler: FIFO among equal-cycle events,
// far-future overflow promotion (including promotion into a bucket that
// still holds stragglers for a previous lap), drain-rebase of the seq
// counter, fast-forward jumps across empty buckets, and a randomized
// queue-level differential against a bare eventHeap.

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestWheelEqualCycleFIFO schedules a same-cycle batch from three origins
// — directly within the horizon, via the overflow heap, and with zero
// delay while that cycle's event phase is draining — and requires strict
// scheduling order.
func TestWheelEqualCycleFIFO(t *testing.T) {
	e := NewEngine()
	const at = wheelSize * 2 // beyond the horizon at schedule time
	var order []int
	for i := 0; i < 8; i++ {
		i := i
		e.ScheduleAt(at, func(uint64) {
			order = append(order, i)
			if i == 3 {
				// Zero-delay events land after the queued batch, in order.
				for j := 0; j < 3; j++ {
					j := j
					e.Schedule(0, func(uint64) { order = append(order, 100+j) })
				}
			}
		})
	}
	e.Run(at+1, nil)
	want := []int{0, 1, 2, 3, 4, 5, 6, 7, 100, 101, 102}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("equal-cycle order = %v, want %v", order, want)
	}
}

// TestWheelOverflowPromotion checks that events parked beyond the horizon
// fire at exactly their cycle once the wheel reaches them, and that a
// promoted event that shares a bucket with stragglers from one lap earlier
// runs after those stragglers but at its own, later cycle.
func TestWheelOverflowPromotion(t *testing.T) {
	e := NewEngine()
	fired := map[string]uint64{}
	// Far-future events, scheduled out of cycle order.
	e.ScheduleAt(3*wheelSize+5, func(now uint64) { fired["far2"] = now })
	e.ScheduleAt(2*wheelSize+5, func(now uint64) { fired["far1"] = now })
	if got := e.sched; len(got.overflow) != 2 {
		t.Fatalf("overflow holds %d events, want 2", len(got.overflow))
	}
	// A straggler for cycle 9, scheduled during cycle 9's tick phase (an
	// event callback would drain in the same cycle; only a Ticker runs
	// after the event phase), plus a promoted event one lap later in the
	// same bucket (cycle 9+wheelSize).
	e.ScheduleAt(9+wheelSize, func(now uint64) { fired["lap"] = now })
	e.Register(&tickScheduler{eng: e, at: 9, fn: func(now uint64) { fired["straggler"] = now }})
	e.Run(4*wheelSize, nil)
	want := map[string]uint64{
		"far1": 2*wheelSize + 5, "far2": 3*wheelSize + 5,
		"straggler": 10, "lap": 9 + wheelSize,
	}
	for k, w := range want {
		if fired[k] != w {
			t.Fatalf("%s fired at %d, want %d (all: %v)", k, fired[k], w, fired)
		}
	}
	if e.Pending() != 0 {
		t.Fatalf("%d events still pending", e.Pending())
	}
}

// TestWheelDrainRebase is the wheel twin of TestSeqRebasesWhenHeapDrains:
// the seq counter rebases when the wheel (including its overflow heap)
// fully drains, and not while overflow events are still pending.
func TestWheelDrainRebase(t *testing.T) {
	e := NewEngine()
	e.ScheduleAt(wheelSize*2, func(uint64) {}) // overflow resident
	for i := 0; i < 10; i++ {
		e.Schedule(0, func(uint64) {})
	}
	e.Step()
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want the one overflow event", e.Pending())
	}
	e.Schedule(1, func(uint64) {})
	if e.seq == 1 {
		t.Fatal("seq rebased while an overflow event was pending")
	}
	e.Run(wheelSize*2+2, nil)
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after run, want 0", e.Pending())
	}
	e.Schedule(1, func(uint64) {})
	if e.seq != 1 {
		t.Fatalf("seq = %d after full drain, want rebase to 1", e.seq)
	}
}

// TestWheelFastForwardJump verifies Run's quiescence jump lands exactly on
// the next event even when that event is several empty buckets — or a
// whole wheel lap — away, with no tickers to pin the clock.
func TestWheelFastForwardJump(t *testing.T) {
	e := NewEngine()
	var fired []uint64
	for _, at := range []uint64{7, 700, wheelSize + 3, 5 * wheelSize} {
		e.ScheduleAt(at, func(now uint64) { fired = append(fired, now) })
	}
	cycles, _ := e.Run(6*wheelSize, nil)
	if cycles != 6*wheelSize {
		t.Fatalf("ran %d cycles, want %d", cycles, 6*wheelSize)
	}
	want := []uint64{7, 700, wheelSize + 3, 5 * wheelSize}
	if fmt.Sprint(fired) != fmt.Sprint(want) {
		t.Fatalf("fired at %v, want %v", fired, want)
	}
}

// tickScheduler schedules fn with zero delay during the tick phase of
// cycle at, producing a bucket straggler: the event's cycle has already
// drained, so it runs at the head of the next cycle's event phase.
type tickScheduler struct {
	eng *Engine
	at  uint64
	fn  func(now uint64)
}

func (ts *tickScheduler) Name() string { return "tickScheduler" }

func (ts *tickScheduler) Tick(now uint64) {
	if now == ts.at {
		ts.eng.Schedule(0, ts.fn)
	}
}

// TestHeapWheelDifferential drives the wheel and a bare eventHeap — the
// reference (at, seq) order — through one seeded sequence of queue
// operations, in the order the engine issues them: advance at the top of
// a step, popDue until nothing is due (popped events may push more,
// zero delay included), pushes from the tick phase, then next() as the
// fast-forward consults it. Delays cover same-cycle, near-wheel,
// one-lap bucket collisions and deep overflow; clock moves are single
// steps or fast-forward jumps, some past the promotion horizon. Every pop
// must agree on (at, seq), and every next() and len() must match.
func TestHeapWheelDifferential(t *testing.T) {
	delays := [...]uint64{0, 1, 3, 50, wheelSize - 1, wheelSize, wheelSize + 1, 3 * wheelSize}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := newWheelScheduler()
		var h eventHeap
		var seq uint64
		push := func(at uint64) {
			seq++
			ev := event{at: at, seq: seq}
			w.push(ev)
			h.push(ev)
		}
		heapNext := func() (uint64, bool) {
			if len(h) == 0 {
				return 0, false
			}
			return h[0].at, true
		}
		checkNext := func(now uint64) (uint64, bool) {
			at, ok := w.next()
			hat, hok := heapNext()
			if at != hat || ok != hok || w.len() != len(h) {
				t.Fatalf("seed %d cycle %d: wheel next (%d, %v) len %d, heap next (%d, %v) len %d",
					seed, now, at, ok, w.len(), hat, hok, len(h))
			}
			return at, ok
		}
		pops := 0
		var now uint64
		for step := 0; step < 4000; step++ {
			w.advance(now)
			for {
				got, gok := w.popDue(now)
				var want event
				wok := len(h) > 0 && h[0].at <= now
				if wok {
					want = h.pop()
				}
				if gok != wok || got.at != want.at || got.seq != want.seq {
					t.Fatalf("seed %d cycle %d: wheel popped (%d, %d, %v), heap (%d, %d, %v)",
						seed, now, got.at, got.seq, gok, want.at, want.seq, wok)
				}
				if !gok {
					break
				}
				pops++
				if rng.Intn(4) == 0 {
					push(now + delays[rng.Intn(len(delays))])
				}
			}
			// Tick phase: a zero delay here leaves a straggler that runs
			// at the head of the next cycle's event phase.
			if step < 3000 {
				for n := rng.Intn(3); n > 0; n-- {
					push(now + delays[rng.Intn(len(delays))])
				}
			}
			at, ok := checkNext(now)
			now++
			// Fast-forward: jump to the next event, or to an earlier
			// cycle (a waker deadline), possibly past the horizon; the
			// engine consults next() again before the next advance.
			if ok && at > now && rng.Intn(3) == 0 {
				now += uint64(rng.Int63n(int64(at-now))) + 1
				checkNext(now)
			}
		}
		if pops == 0 || w.len() != len(h) {
			t.Fatalf("seed %d: %d pops, wheel holds %d, heap %d", seed, pops, w.len(), len(h))
		}
	}
}
