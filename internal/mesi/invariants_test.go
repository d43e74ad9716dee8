package mesi

// CheckInvariants keeps its working set in directory-owned scratch and
// sorts only the violations it finds. These tests pin it to the reference
// oracle (invariants_oracle_test.go): planted violations of each invariant
// with an exact expected report, and a seeded random-corruption
// differential on a machine populated by a random litmus program.

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"fusion/internal/cache"
	"fusion/internal/mem"
	"fusion/internal/trace"
	"fusion/internal/workloads"
)

// plant installs a valid line for addr in c's cache in state s.
func plant(c *Client, addr uint64, s cache.State) {
	l := c.arr.Victim(addr)
	c.arr.Fill(l, addr, 0)
	l.State = s
}

// plantDir sets the directory record for addr.
func plantDir(dir *Directory, addr uint64, s dirState, owner AgentID, sharers ...AgentID) *dirEntry {
	e := dir.entry(addr)
	e.state, e.owner, e.sharers = s, owner, 0
	for _, id := range sharers {
		e.sharers.add(id)
	}
	return e
}

// checkBoth runs the sweep and the oracle and fails unless they agree.
func checkBoth(t *testing.T, dir *Directory, clients []*Client) []string {
	t.Helper()
	got := CheckInvariants(dir, clients)
	if want := oracleCheckInvariants(dir, clients); !slices.Equal(got, want) {
		t.Fatalf("sweep and oracle disagree:\n got %q\nwant %q", got, want)
	}
	return got
}

func TestCheckInvariantsPlanted(t *testing.T) {
	h := newHarness(t, 3)
	c1, c2, c3 := h.clients[0], h.clients[1], h.clients[2]

	// Single owner: two E/M holders (the directory's view is then moot),
	// plus an unrecorded sharer.
	plant(c1, 0x3000, cache.Modified)
	plant(c2, 0x3000, cache.Exclusive)
	plant(c3, 0x3000, cache.Shared)
	plantDir(h.dir, 0x3000, dirE, c2.id)
	// Exclusivity and owner tracking: an owner beside two sharers while the
	// directory records the line as shared by agent 1 only.
	plant(c1, 0x2000, cache.Shared)
	plant(c2, 0x2000, cache.Exclusive)
	plant(c3, 0x2000, cache.Shared)
	plantDir(h.dir, 0x2000, dirS, 0, c1.id)
	// Sharer soundness: two S holders and no directory record at all.
	plant(c3, 0x1000, cache.Shared)
	plant(c1, 0x1000, cache.Shared)
	// Owner tracking alone: the directory names another owner. 0x4000 maps
	// to set 0, so it comes first in array order but not in the report.
	plant(c1, 0x4000, cache.Modified)
	plantDir(h.dir, 0x4000, dirE, c3.id)
	// Clean lines.
	plant(c1, 0x5000, cache.Exclusive)
	plantDir(h.dir, 0x5000, dirE, c1.id)
	plant(c1, 0x6000, cache.Shared)
	plant(c2, 0x6000, cache.Shared)
	plantDir(h.dir, 0x6000, dirS, 0, c1.id, c2.id)
	// Transient lines: each breaks single-owner, and each is in flight at
	// one of the four places the sweep must honour.
	for _, a := range []uint64{0x7000, 0x8000, 0x9000, 0xa000} {
		plant(c1, a, cache.Modified)
		plant(c3, a, cache.Modified)
	}
	c2.mshr.Allocate(0x7000)
	c2.evicting = append(c2.evicting, evictEntry{addr: 0x8000})
	plantDir(h.dir, 0x9000, dirE, c1.id).busy = true
	plantDir(h.dir, 0xa000, dirE, c1.id).queue = []*Msg{{}}

	want := []string{
		"line 0x1000: agent 1 holds S but is not a recorded sharer",
		"line 0x1000: agent 3 holds S but is not a recorded sharer",
		"line 0x2000 owned by agent 2 while 2 sharers hold S",
		"line 0x2000: agent 2 holds E but the directory disagrees",
		"line 0x2000: agent 3 holds S but is not a recorded sharer",
		"line 0x3000 has 2 owners",
		"line 0x3000: agent 3 holds S but is not a recorded sharer",
		"line 0x4000: agent 1 holds M but the directory disagrees",
	}
	// A second sweep over the same state must reuse its scratch cleanly.
	for sweep := 0; sweep < 2; sweep++ {
		if got := checkBoth(t, h.dir, h.clients); !slices.Equal(got, want) {
			t.Fatalf("sweep %d:\n got %s\nwant %s", sweep,
				strings.Join(got, "\n     "), strings.Join(want, "\n     "))
		}
	}

	// Once the transients settle, their violations surface.
	c2.mshr.Free(0x7000)
	c2.evicting = c2.evicting[:0]
	e, _ := h.dir.entries.Get(0x9000)
	e.busy = false
	e, _ = h.dir.entries.Get(0xa000)
	e.queue = nil
	got := checkBoth(t, h.dir, h.clients)
	for _, a := range []string{"0x7000", "0x8000", "0x9000", "0xa000"} {
		if !slices.Contains(got, "line "+a+" has 2 owners") {
			t.Errorf("settled line %s not reported; report:\n%s", a, strings.Join(got, "\n"))
		}
	}
}

func TestCheckInvariantsCleanIsNil(t *testing.T) {
	h := newHarness(t, 2)
	if got := checkBoth(t, h.dir, h.clients); got != nil {
		t.Fatalf("empty machine: %q, want nil", got)
	}
	plant(h.clients[0], 0x40, cache.Exclusive)
	plantDir(h.dir, 0x40, dirE, h.clients[0].id)
	if got := checkBoth(t, h.dir, h.clients); got != nil {
		t.Fatalf("clean machine: %q, want nil", got)
	}
}

// populate replays random litmus programs' accesses (seed, seed+1, ...)
// on the clients, one client per accelerator and host phases on the
// first, until maxOps accesses have issued. It stops without draining, so
// some lines are still in flight.
func populate(h *harness, seed int64, maxOps int) {
	rng := rand.New(rand.NewSource(seed))
	ops := 0
	issue := func(c *Client, kind mem.AccessKind, a mem.VAddr) {
		for !c.Access(kind, mem.PAddr(a), func(uint64) {}) {
			h.eng.Step()
		}
		for s := rng.Intn(3); s > 0; s-- {
			h.eng.Step()
		}
		ops++
	}
	for ; ; seed++ {
		b := workloads.Random(seed, workloads.DefaultRandomParams())
		for i := range b.Program.Phases {
			ph := &b.Program.Phases[i]
			c := h.clients[0]
			if ph.Kind != trace.PhaseHost {
				c = h.clients[ph.Inv.AXC%len(h.clients)]
			}
			for j := range ph.Inv.Iterations {
				it := &ph.Inv.Iterations[j]
				for _, a := range it.Loads {
					issue(c, mem.Load, a)
				}
				for _, a := range it.Stores {
					issue(c, mem.Store, a)
				}
				if ops >= maxOps {
					return
				}
			}
		}
	}
}

// machineSnapshot saves what the corruptions below may touch.
type machineSnapshot struct {
	lines   [][]cache.Line
	entries map[uint64]dirEntry
}

func snapshot(h *harness) machineSnapshot {
	s := machineSnapshot{entries: map[uint64]dirEntry{}}
	for _, c := range h.clients {
		ls := make([]cache.Line, c.arr.NumLines())
		for i := range ls {
			ls[i] = *c.arr.LineAt(i)
		}
		s.lines = append(s.lines, ls)
	}
	h.dir.entries.ForEach(func(a uint64, ep **dirEntry) { s.entries[a] = **ep })
	return s
}

func (s machineSnapshot) restore(h *harness, evicting []int) {
	for ci, c := range h.clients {
		for i, l := range s.lines[ci] {
			*c.arr.LineAt(i) = l
		}
		c.evicting = c.evicting[:evicting[ci]]
	}
	h.dir.entries.ForEach(func(a uint64, ep **dirEntry) { **ep = s.entries[a] })
}

// TestCheckInvariantsMatchesOracle corrupts a populated machine at random
// — line states, duplicate holders, directory states, owners, sharer sets,
// busy and queued entries, MSHR and eviction-buffer transients — and
// requires the sweep's report to equal the oracle's exactly.
func TestCheckInvariantsMatchesOracle(t *testing.T) {
	h := newHarness(t, 3)
	populate(h, 3, 6000)
	if bad := oracleCheckInvariants(h.dir, h.clients); len(bad) > 0 {
		t.Fatalf("populated machine is already inconsistent: %v", bad)
	}
	var held []uint64
	seen := map[uint64]bool{}
	for _, c := range h.clients {
		c.arr.ForEach(func(l *cache.Line) {
			if l.Valid && !seen[l.Addr] {
				seen[l.Addr] = true
				held = append(held, l.Addr)
			}
		})
	}
	if len(held) < 100 {
		t.Fatalf("only %d lines held; the program did not populate the caches", len(held))
	}

	snap := snapshot(h)
	evicting := make([]int, len(h.clients))
	for i, c := range h.clients {
		evicting[i] = len(c.evicting)
	}
	states := []cache.State{cache.Invalid, cache.Shared, cache.Exclusive, cache.Modified}
	rng := rand.New(rand.NewSource(15))
	const trials = 1500
	violating, multi := 0, 0
	for trial := 0; trial < trials; trial++ {
		// Corruptions aim at a few lines per trial so they pile up.
		hot := make([]uint64, 4)
		for i := range hot {
			hot[i] = held[rng.Intn(len(held))]
		}
		var allocated []struct {
			c    *Client
			addr uint64
		}
		for k := 1 + rng.Intn(5); k > 0; k-- {
			a := hot[rng.Intn(len(hot))]
			c := h.clients[rng.Intn(len(h.clients))]
			e, _ := h.dir.entries.Get(a)
			switch op := rng.Intn(9); {
			case op == 0: // restate a held copy
				if l := c.arr.Peek(a); l != nil {
					l.State = states[rng.Intn(len(states))]
				}
			case op == 1: // a (possibly duplicate) holder appears
				plant(c, a, states[1+rng.Intn(3)])
			case op == 2: // drop a copy
				if l := c.arr.Peek(a); l != nil {
					l.Valid = false
				}
			case op == 3 && e != nil:
				e.state = dirState(rng.Intn(3))
			case op == 4 && e != nil:
				e.owner = AgentID(rng.Intn(5))
			case op == 5 && e != nil:
				e.sharers = sharerSet(rng.Intn(32))
			case op == 6 && e != nil:
				if rng.Intn(2) == 0 {
					e.busy = !e.busy
				} else {
					e.queue = []*Msg{{}}
				}
			case op == 7:
				if c.mshr.Slot(a) < 0 && c.mshr.Allocate(a) >= 0 {
					allocated = append(allocated, struct {
						c    *Client
						addr uint64
					}{c, a})
				}
			case op == 8:
				c.evicting = append(c.evicting, evictEntry{addr: a})
			}
		}
		got := CheckInvariants(h.dir, h.clients)
		want := oracleCheckInvariants(h.dir, h.clients)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d:\n got %q\nwant %q", trial, got, want)
		}
		if len(want) > 0 {
			violating++
		}
		if len(want) > 1 {
			multi++
		}
		for _, x := range allocated {
			x.c.mshr.Free(x.addr)
		}
		snap.restore(h, evicting)
	}
	if bad := CheckInvariants(h.dir, h.clients); bad != nil {
		t.Fatalf("restored machine reports %q", bad)
	}
	// The differential only means something if corruption was caught.
	if violating < trials/3 || multi < trials/10 {
		t.Fatalf("only %d of %d trials violated (%d with several reports)", violating, trials, multi)
	}
	t.Logf("%d of %d trials violated, %d with several reports; %d held lines, %d directory entries",
		violating, trials, multi, len(held), h.dir.entries.Len())
}
