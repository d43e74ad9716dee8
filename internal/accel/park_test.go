package accel

// Parking: a Tick that changes nothing parks the accelerator until the
// next memory completion. These tests pin that parking skips only ticks
// that would have been no-ops: cycle counts, the MLP gauge and the issue
// schedule equal what per-cycle execution gives, worked out by hand.

import (
	"slices"
	"testing"

	"fusion/internal/energy"
	"fusion/internal/sim"
	"fusion/internal/stats"
	"fusion/internal/trace"
)

// tickProbe records the cycles on which the accelerator's Tick does work.
// Registered ahead of the accelerator, it runs after the event phase (so a
// wake this cycle is already visible) and just before the accelerator's
// Tick.
type tickProbe struct {
	a     *Accelerator
	ticks []uint64
}

func (p *tickProbe) Name() string { return "probe" }
func (p *tickProbe) Idle() bool   { return true }
func (p *tickProbe) Tick(now uint64) {
	if p.a.inv != nil && !p.a.parked {
		p.ticks = append(p.ticks, now)
	}
}

// runProbed runs inv to completion with a tickProbe attached.
func runProbed(t *testing.T, cfg Config, inv *trace.Invocation, port *fakePort) (*Accelerator, *tickProbe, uint64, *stats.Set) {
	t.Helper()
	eng := sim.NewEngine()
	port.eng = eng
	st := stats.NewSet()
	p := &tickProbe{}
	eng.Register(p)
	a := New(eng, "axc0", cfg, energy.Default(), nil, st)
	p.a = a
	var doneAt uint64
	fired := false
	a.Start(inv, port, func(now uint64) { doneAt = now; fired = true })
	if _, ok := eng.Run(1000000, func() bool { return fired }); !ok {
		t.Fatal("invocation never completed")
	}
	return a, p, doneAt, st
}

// TestParkedCountersExact works one invocation through by hand: three
// one-load iterations issued one per cycle (MemPorts 1) at cycles 0, 1, 2
// against a 10-cycle port, so the loads complete at 10, 11, 12. The
// outstanding count the per-cycle samples see is 1, 2, 3 at cycles 1-3,
// 3 through the parked cycles 4-9, then 2 and 1 at cycles 10 and 11:
// 11 samples summing to 27. The last compute cycle and retirement land on
// cycle 12.
func TestParkedCountersExact(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MemPorts = 1
	inv := &trace.Invocation{Iterations: iters(3, 1, 0, 4)}
	port := &fakePort{latency: 10}
	a, p, doneAt, st := runProbed(t, cfg, inv, port)
	if doneAt != 12 || st.Get("axc0.cycles") != 12 {
		t.Fatalf("done at %d, cycles %d; want 12", doneAt, st.Get("axc0.cycles"))
	}
	if a.mlpSamples != 11 || a.mlpSum != 27 {
		t.Fatalf("MLP samples/sum = %d/%d, want 11/27", a.mlpSamples, a.mlpSum)
	}
	if got, want := st.Get("axc0.mlp_milli"), int64(27*1000/11); got != want {
		t.Fatalf("mlp_milli = %d, want %d", got, want)
	}
	if want := []uint64{0, 1, 2, 3, 10, 11, 12}; !slices.Equal(p.ticks, want) {
		t.Fatalf("working ticks at %v, want %v", p.ticks, want)
	}
}

// TestParkedTicksPerCompletion bounds the working ticks of a memory-bound
// stream: each completion buys a wake tick, at most one compute tick and
// the no-op tick that parks again, whatever the memory latency.
func TestParkedTicksPerCompletion(t *testing.T) {
	inv := &trace.Invocation{Iterations: iters(200, 2, 1, 4)}
	port := &fakePort{latency: 100}
	_, p, doneAt, _ := runProbed(t, DefaultConfig(), inv, port)
	if bound := 3*port.accesses + 2; len(p.ticks) > bound {
		t.Fatalf("%d working ticks for %d completions, want at most %d",
			len(p.ticks), port.accesses, bound)
	}
	if uint64(len(p.ticks))*4 > doneAt {
		t.Fatalf("%d working ticks in %d cycles: parking skipped too little",
			len(p.ticks), doneAt)
	}
}

// TestBackPressureKeepsTicking: a refused Access owes a retry next cycle,
// so the accelerator must not park while the port refuses, and the first
// load issues on the first cycle the port accepts.
func TestBackPressureKeepsTicking(t *testing.T) {
	const refuse = 25
	inv := &trace.Invocation{Iterations: iters(2, 1, 0, 1)}
	port := &fakePort{latency: 5, refuseUntil: refuse}
	_, p, _, _ := runProbed(t, DefaultConfig(), inv, port)
	for c := uint64(0); c <= refuse; c++ {
		if c >= uint64(len(p.ticks)) || p.ticks[c] != c {
			t.Fatalf("no working tick at cycle %d while refused (ticks %v)", c, p.ticks)
		}
	}
	if len(port.issued) != 2 || port.issued[0] != refuse {
		t.Fatalf("accesses accepted at %v, want the first at %d", port.issued, refuse)
	}
}

// TestSerialAdmitsAfterComputeDrains: in a Serial invocation iteration
// i+1 is admitted only once iteration i's compute has drained. With a
// 20-cycle port and 2 compute cycles (8 int ops on 4 ALUs) a load
// completing at cycle t computes at t and t+1 and the next load issues
// at t+2, so load i issues at 22*i — parked or not.
func TestSerialAdmitsAfterComputeDrains(t *testing.T) {
	inv := &trace.Invocation{Serial: true, Iterations: iters(6, 1, 0, 8)}
	port := &fakePort{latency: 20}
	_, _, doneAt, _ := runProbed(t, DefaultConfig(), inv, port)
	for i, at := range port.issued {
		if at != uint64(22*i) {
			t.Fatalf("serial loads issued at %v, want 22*i", port.issued)
		}
	}
	if doneAt != 22*5+21 {
		t.Fatalf("done at %d, want %d", doneAt, 22*5+21)
	}
}

// TestParkedIsIdle: while parked the accelerator is busy but reports
// Idle, so the engine may fast-forward; the completion wakes it.
func TestParkedIsIdle(t *testing.T) {
	eng := sim.NewEngine()
	a := New(eng, "axc0", DefaultConfig(), energy.Default(), nil, stats.NewSet())
	port := &fakePort{eng: eng, latency: 10}
	a.Start(&trace.Invocation{Iterations: iters(1, 1, 0, 1)}, port, nil)
	eng.Step() // cycle 0: admit and issue the load
	if a.Idle() {
		t.Fatal("Idle after the issuing tick")
	}
	eng.Step() // cycle 1: nothing to do but wait: parks
	if !a.Busy() || !a.Idle() {
		t.Fatalf("after a no-op tick: Busy %v Idle %v, want both true", a.Busy(), a.Idle())
	}
	for eng.Now() < 10 {
		eng.Step()
	}
	if !a.Idle() {
		t.Fatal("woke before the completion")
	}
	eng.Step() // cycle 10: the load completes, then compute and retire
	if a.Busy() || !a.Idle() {
		t.Fatalf("after completion: Busy %v Idle %v, want false/true", a.Busy(), a.Idle())
	}
}
