package acc

// Tile.CheckInvariants keeps its working set in tile-owned scratch and
// sorts only lines with two or more open write epochs. These tests pin it
// to the reference oracle (invariants_oracle_test.go): planted violations
// of each invariant with an exact expected report, and a seeded
// random-corruption differential on a tile populated by a random litmus
// program.

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"fusion/internal/cache"
	"fusion/internal/mem"
	"fusion/internal/trace"
	"fusion/internal/vm"
	"fusion/internal/workloads"
)

const plantPID mem.PID = 1

// plantL0X installs a valid line for addr in an L0X with the given lease,
// write epoch and dirty bit.
func plantL0X(l0 *L0X, addr, ltime, wtime uint64, dirty bool) *cache.Line {
	l := l0.arr.Victim(addr)
	l0.arr.Fill(l, addr, plantPID)
	l.LTime, l.WTime, l.Dirty = ltime, wtime, dirty
	return l
}

// plantL1X installs a valid L1X line for addr at physical address pa and,
// when mapped, its AX-RMAP entry.
func plantL1X(t *Tile, addr uint64, pa mem.PAddr, gtime uint64, mapped bool) {
	l := t.L1X.arr.Victim(addr)
	t.L1X.arr.Fill(l, addr, plantPID)
	l.PAddr, l.GTime = pa, gtime
	if mapped {
		t.RMAP.Insert(pa, vm.Pointer{VAddr: mem.VAddr(addr), PID: plantPID})
	}
}

func checkTileBoth(t *testing.T, tile *Tile, now uint64) []string {
	t.Helper()
	got := tile.CheckInvariants(now)
	if want := oracleCheckInvariants(tile, now); !slices.Equal(got, want) {
		t.Fatalf("sweep and oracle disagree at %d:\n got %q\nwant %q", now, got, want)
	}
	return got
}

func TestTileCheckInvariantsPlanted(t *testing.T) {
	h := newHarness(t, 3, false)
	tile := h.tile
	l0, l1, l2 := tile.L0Xs[0], tile.L0Xs[1], tile.L0Xs[2]
	const now = 1000

	// Dirty discipline: dirty without a write epoch (lease long expired).
	plantL0X(l0, 0x3000, 10, 0, true)
	// Lease containment, twice: a live lease beyond its L1X line's GTIME,
	// and one with no L1X line at all.
	plantL0X(l1, 0x6000, 1200, 0, false)
	plantL1X(tile, 0x6000, 0x106000, 1100, true)
	plantL0X(l2, 0x5000, 1500, 0, false)
	// Single writer: three open epochs on 0x8000 and two on 0x7000 (planted
	// in descending address order), plus an expired epoch on 0x7000 that
	// must not count. The L1X covers every lease.
	plantL0X(l2, 0x8000, 0, 1300, true)
	plantL0X(l0, 0x8000, 0, 1300, true)
	plantL0X(l1, 0x8000, 1300, 1100, true)
	plantL1X(tile, 0x8000, 0x108000, 1300, true)
	plantL0X(l2, 0x7000, 0, 1200, true)
	plantL0X(l1, 0x7000, 0, 900, true)
	plantL0X(l0, 0x7000, 1100, 1050, true)
	plantL1X(tile, 0x7000, 0x107000, 1200, true)
	// A clean line with a single open epoch.
	plantL0X(l1, 0xc000, 1100, 1100, true)
	plantL1X(tile, 0xc000, 0x10c000, 1100, true)
	// Reverse map: an L1X line missing from the AX-RMAP, one the AX-RMAP
	// points elsewhere, and two stray entries so the counts disagree.
	plantL1X(tile, 0x9000, 0x109000, 0, false)
	plantL1X(tile, 0xa000, 0x10a000, 0, false)
	tile.RMAP.Insert(0x10a000, vm.Pointer{VAddr: 0xb000, PID: plantPID})
	tile.RMAP.Insert(0x200000, vm.Pointer{VAddr: 0xd000, PID: plantPID})
	tile.RMAP.Insert(0x201000, vm.Pointer{VAddr: 0xe000, PID: plantPID})

	want := []string{
		fmt.Sprintf("%s: dirty line 0x3000 never held a write epoch", l0.name),
		fmt.Sprintf("%s: lease on 0x6000 until 1200 exceeds L1X GTIME 1100", l1.name),
		fmt.Sprintf("%s: live lease on 0x5000 (until 1500) with no L1X line", l2.name),
		"line 0x7000 has 2 simultaneous write epochs ([0 2])",
		"line 0x8000 has 3 simultaneous write epochs ([0 1 2])",
		// L1X slot order, not address order: 0xa000 maps to set 0.
		"AX-RMAP points p0x10a000 at v0xb000, but the L1X line is v0xa000",
		"l1x line v0x9000 (p0x109000) missing from AX-RMAP",
		"AX-RMAP tracks 7 lines but the L1X holds 6",
	}
	for sweep := 0; sweep < 2; sweep++ {
		if got := checkTileBoth(t, tile, now); !slices.Equal(got, want) {
			t.Fatalf("sweep %d:\n got %s\nwant %s", sweep,
				strings.Join(got, "\n     "), strings.Join(want, "\n     "))
		}
	}
	// Later, every lease and epoch above has lapsed: only the dirty line
	// and the reverse-map faults remain.
	got := checkTileBoth(t, tile, 2000)
	if len(got) != 4 || !strings.Contains(got[0], "0x3000") {
		t.Fatalf("at 2000: %q", got)
	}
}

// populateTile replays random litmus programs' accelerator phases (seed,
// seed+1, ...) through the tile's L0Xs until maxOps accesses have issued,
// and stops without draining.
func populateTile(h *harness, seed int64, maxOps int) {
	rng := rand.New(rand.NewSource(seed))
	ops := 0
	issue := func(l0 *L0X, kind mem.AccessKind, a mem.VAddr) {
		for !l0.Access(kind, a, func(uint64) {}) {
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
			if ph.Kind == trace.PhaseHost {
				continue
			}
			l0 := h.tile.L0Xs[ph.Inv.AXC%len(h.tile.L0Xs)]
			for j := range ph.Inv.Iterations {
				it := &ph.Inv.Iterations[j]
				for _, a := range it.Loads {
					issue(l0, mem.Load, a)
				}
				for _, a := range it.Stores {
					issue(l0, mem.Store, a)
				}
				if ops >= maxOps {
					return
				}
			}
		}
	}
}

// tileSnapshot saves the arrays the corruptions below may touch; AX-RMAP
// edits are undone from a log.
type tileSnapshot struct {
	l0   [][]cache.Line
	l1   []cache.Line
	rmap map[mem.PAddr]*vm.Pointer // pre-edit entry, nil when absent
}

func saveLines(a *cache.Array) []cache.Line {
	ls := make([]cache.Line, a.NumLines())
	for i := range ls {
		ls[i] = *a.LineAt(i)
	}
	return ls
}

func loadLines(a *cache.Array, ls []cache.Line) {
	for i, l := range ls {
		*a.LineAt(i) = l
	}
}

func (s *tileSnapshot) logRMAP(r *vm.RMAP, pa mem.PAddr) {
	pa = pa.LineAddr()
	if _, logged := s.rmap[pa]; logged {
		return
	}
	if p, ok := r.Lookupless(pa); ok {
		s.rmap[pa] = &p
	} else {
		s.rmap[pa] = nil
	}
}

func (s *tileSnapshot) restore(tile *Tile) {
	for i, l0 := range tile.L0Xs {
		loadLines(l0.arr, s.l0[i])
	}
	loadLines(tile.L1X.arr, s.l1)
	for pa, p := range s.rmap {
		if p == nil {
			tile.RMAP.Remove(pa)
		} else {
			tile.RMAP.Insert(pa, *p)
		}
	}
	clear(s.rmap)
}

// TestTileCheckInvariantsMatchesOracle corrupts a populated tile at random
// — leases, write epochs, dirty bits, duplicate L0X holders, L1X GTIMEs,
// tags and physical addresses, and AX-RMAP entries — and sweeps at a
// random cycle around the present, requiring the sweep's report to equal
// the oracle's exactly.
func TestTileCheckInvariantsMatchesOracle(t *testing.T) {
	h := newHarness(t, 3, false)
	populateTile(h, 3, 3000)
	tile := h.tile
	base := h.eng.Now()
	if bad := oracleCheckInvariants(tile, base); len(bad) > 0 {
		t.Fatalf("populated tile is already inconsistent: %v", bad)
	}
	var held []*cache.Line // valid L1X lines, in slot order
	for i, n := 0, tile.L1X.arr.NumLines(); i < n; i++ {
		if l := tile.L1X.arr.LineAt(i); l.Valid {
			held = append(held, l)
		}
	}
	if len(held) < 100 {
		t.Fatalf("only %d L1X lines held; the program did not populate the tile", len(held))
	}

	snap := &tileSnapshot{l1: saveLines(tile.L1X.arr), rmap: map[mem.PAddr]*vm.Pointer{}}
	for _, l0 := range tile.L0Xs {
		snap.l0 = append(snap.l0, saveLines(l0.arr))
	}
	rng := rand.New(rand.NewSource(15))
	near := func() uint64 { return base - 600 + uint64(rng.Intn(1200)) }
	const trials = 1500
	violating, multi, writers := 0, 0, 0
	for trial := 0; trial < trials; trial++ {
		hot := make([]cache.Line, 3) // copies: corruption may rewrite the originals
		for i := range hot {
			hot[i] = *held[rng.Intn(len(held))]
		}
		for k := 1 + rng.Intn(5); k > 0; k-- {
			x := hot[rng.Intn(len(hot))]
			l0 := tile.L0Xs[rng.Intn(len(tile.L0Xs))]
			l := l0.arr.LookupPID(x.Addr, x.PID)
			l1 := tile.L1X.arr.LookupPID(x.Addr, x.PID)
			switch op := rng.Intn(12); {
			case op == 0 || op >= 10: // an L0X copy appears, possibly a second writer
				plantL0X(l0, x.Addr, near(), near()*uint64(rng.Intn(2)), rng.Intn(2) == 0)
			case op == 1 && l != nil:
				l.WTime = near() * uint64(rng.Intn(2))
			case op == 2 && l != nil:
				l.LTime = near()
			case op == 3 && l != nil:
				l.Dirty = !l.Dirty
			case op == 4 && l != nil:
				l.Valid = false
			case op == 5 && l1 != nil:
				l1.GTime = near()
			case op == 6 && l1 != nil:
				l1.Valid = false
			case op == 7 && l1 != nil: // retag: the AX-RMAP now points elsewhere
				if rng.Intn(2) == 0 {
					l1.Addr += mem.LineBytes
				} else {
					l1.PID++
				}
			case op == 8:
				snap.logRMAP(tile.RMAP, x.PAddr)
				tile.RMAP.Remove(x.PAddr)
			case op == 9:
				pa := x.PAddr + mem.PAddr(rng.Intn(2)*0x100000)
				snap.logRMAP(tile.RMAP, pa)
				tile.RMAP.Insert(pa, vm.Pointer{VAddr: mem.VAddr(hot[rng.Intn(len(hot))].Addr), PID: x.PID})
			}
		}
		now := near()
		got := tile.CheckInvariants(now)
		want := oracleCheckInvariants(tile, now)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d at %d:\n got %q\nwant %q", trial, now, got, want)
		}
		if len(want) > 0 {
			violating++
		}
		if len(want) > 1 {
			multi++
		}
		if slices.ContainsFunc(want, func(s string) bool { return strings.Contains(s, "simultaneous") }) {
			writers++
		}
		snap.restore(tile)
	}
	if bad := tile.CheckInvariants(base); bad != nil {
		t.Fatalf("restored tile reports %q", bad)
	}
	if violating < trials/3 || multi < trials/10 || writers < 10 {
		t.Fatalf("only %d of %d trials violated (%d with several reports, %d with two writers)",
			violating, trials, multi, writers)
	}
	t.Logf("%d of %d trials violated, %d with several reports, %d with two writers; %d L1X lines",
		violating, trials, multi, writers, len(held))
}
