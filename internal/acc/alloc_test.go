//go:build !race

// Allocation-discipline tests, excluded under the race detector (the race
// runtime instruments allocations and makes AllocsPerRun counts
// meaningless).
package acc

import (
	"testing"

	"fusion/internal/mem"
	"fusion/internal/mesi"
)

// TestClearForwardsZeroAlloc pins the task-boundary cost of the Dx
// forwarding table: after the table has reached steady-state capacity, a
// full mark/clear cycle must not touch the allocator. ClearForwards used
// to reallocate the map each invocation, which showed up in allocation
// profiles at every task boundary.
func TestClearForwardsZeroAlloc(t *testing.T) {
	h := newHarness(t, 2, true)
	l0 := h.tile.L0Xs[0]
	mark := func() {
		for i := 0; i < 48; i++ {
			l0.MarkForward(mem.VAddr(0x8000+i*64), 1)
		}
	}
	// One warm-up cycle sizes the table; growth is amortized construction
	// cost, not task-boundary cost.
	mark()
	l0.ClearForwards()
	if avg := testing.AllocsPerRun(100, func() {
		mark()
		l0.ClearForwards()
	}); avg != 0 {
		t.Fatalf("MarkForward/ClearForwards cycle allocated %.1f per run, want 0", avg)
	}
}

// TestParanoidSweepZeroAlloc pins the cost of a paranoid-mode sweep: once
// warm, a clean pass of both invariant checkers over a populated machine
// (the tile's ACC invariants and the directory's MESI invariants against
// the host L1) must not touch the allocator.
func TestParanoidSweepZeroAlloc(t *testing.T) {
	h := newHarness(t, 3, false)
	populateTile(h, 3, 2000)
	for i := 0; i < 300; i++ {
		h.hostDo(t, mem.Load, mem.VAddr(0x400000+i*64))
	}
	clients := []*mesi.Client{h.host}
	now := h.eng.Now()
	sweep := func() {
		if bad := h.tile.CheckInvariants(now); bad != nil {
			t.Fatalf("tile sweep: %v", bad)
		}
		if bad := mesi.CheckInvariants(h.dir, clients); bad != nil {
			t.Fatalf("MESI sweep: %v", bad)
		}
	}
	sweep() // warm-up sizes the scratch
	if avg := testing.AllocsPerRun(50, sweep); avg != 0 {
		t.Fatalf("a clean paranoid sweep allocated %.1f per run, want 0", avg)
	}
	if n := h.tile.L1X.arr.CountValid(); n < 100 {
		t.Fatalf("only %d L1X lines held; the sweep checked an empty tile", n)
	}
	held := 0
	for i := 0; i < 300; i++ {
		if h.host.Peek(h.pt.Translate(1, mem.VAddr(0x400000+i*64))) != nil {
			held++
		}
	}
	if held < 300 {
		t.Fatalf("only %d of 300 host L1 lines held; the MESI sweep checked an empty cache", held)
	}
}
