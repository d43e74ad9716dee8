package acc

// Runtime invariant checking for the ACC protocol. CheckInvariants scans
// the tile's caches and reports violations of the properties the protocol
// is supposed to guarantee; systems can run it periodically ("paranoid
// mode") so any state corruption is caught at the cycle it happens rather
// than as a wrong result at the end.

import (
	"fmt"
	"slices"

	"fusion/internal/flat"
)

// CheckInvariants returns a description of every protocol-invariant
// violation currently present in the tile (empty means clean):
//
//  1. Single writer: at most one L0X holds an unexpired write epoch on a
//     line.
//  2. Lease containment: every live L0X lease is covered by an L1X line
//     whose GTIME is no earlier than the lease's expiry — the L1X's
//     promise to the host protocol depends on it.
//  3. Dirty discipline: a dirty L0X line implies a write epoch was granted
//     (WTime set).
//  4. Reverse-map consistency: every valid L1X line is reachable through
//     the AX-RMAP under its physical address, and vice versa.
func (t *Tile) CheckInvariants(now uint64) []string {
	var bad []string
	sc := &t.inv
	if sc.writers == nil {
		sc.writers = flat.New[int](64)
	}
	sc.writers.Clear()
	sc.multi = sc.multi[:0]

	// 1 + 2 + 3: scan the L0Xs.
	for _, l0 := range t.L0Xs {
		for i, n := 0, l0.arr.NumLines(); i < n; i++ {
			l := l0.arr.LineAt(i)
			if !l.Valid {
				continue
			}
			if l.WTime > now {
				w, _ := sc.writers.Upsert(l.Addr)
				*w++
				if *w == 2 {
					sc.multi = append(sc.multi, l.Addr)
				}
			}
			if l.Dirty && l.WTime == 0 {
				bad = append(bad, fmt.Sprintf(
					"%s: dirty line %#x never held a write epoch", l0.name, l.Addr))
			}
			exp := max(l.LTime, l.WTime)
			if exp <= now {
				continue
			}
			// 2: the L1X must cover this lease.
			x := t.L1X.arr.LookupPID(l.Addr, l.PID)
			if x == nil {
				bad = append(bad, fmt.Sprintf(
					"%s: live lease on %#x (until %d) with no L1X line",
					l0.name, l.Addr, exp))
			} else if x.GTime < exp {
				bad = append(bad, fmt.Sprintf(
					"%s: lease on %#x until %d exceeds L1X GTIME %d",
					l0.name, l.Addr, exp, x.GTime))
			}
		}
	}
	// Only lines with two or more open write epochs are sorted; ascending
	// address order keeps the report reproducible across runs.
	slices.Sort(sc.multi)
	for _, addr := range sc.multi {
		ws := t.openWriters(addr, now)
		bad = append(bad, fmt.Sprintf(
			"line %#x has %d simultaneous write epochs (%v)", addr, len(ws), ws))
	}

	// 4: L1X <-> RMAP bijection.
	valid := 0
	for i, n := 0, t.L1X.arr.NumLines(); i < n; i++ {
		l := t.L1X.arr.LineAt(i)
		if !l.Valid {
			continue
		}
		valid++
		ptr, ok := t.RMAP.Lookupless(l.PAddr)
		if !ok {
			bad = append(bad, fmt.Sprintf(
				"l1x line v%#x (p%#x) missing from AX-RMAP", l.Addr, uint64(l.PAddr)))
			continue
		}
		if uint64(ptr.VAddr.LineAddr()) != l.Addr || ptr.PID != l.PID {
			bad = append(bad, fmt.Sprintf(
				"AX-RMAP points p%#x at v%#x, but the L1X line is v%#x",
				uint64(l.PAddr), uint64(ptr.VAddr), l.Addr))
		}
	}
	if rm := t.RMAP.Len(); rm != valid {
		bad = append(bad, fmt.Sprintf(
			"AX-RMAP tracks %d lines but the L1X holds %d", rm, valid))
	}
	return bad
}

// invScratch is the tile-owned working set of CheckInvariants, kept across
// sweeps so a clean sweep allocates nothing once warm.
type invScratch struct {
	writers *flat.Map[int] // line -> open write epochs this sweep
	multi   []uint64       // lines with two or more open write epochs
}

// openWriters lists, in L0X scan order, the L0Xs holding an open write
// epoch on addr. Only a violating line is listed, so a rescan is cheap.
func (t *Tile) openWriters(addr, now uint64) []AXCID {
	var ws []AXCID
	for _, l0 := range t.L0Xs {
		for i, n := 0, l0.arr.NumLines(); i < n; i++ {
			if l := l0.arr.LineAt(i); l.Valid && l.Addr == addr && l.WTime > now {
				ws = append(ws, l0.id)
			}
		}
	}
	return ws
}
