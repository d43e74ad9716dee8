package acc

// The ACC invariant sweep as it was before it moved to tile-owned scratch:
// a fresh writers map per call and a sort over every open write epoch. It
// stays here as the reference oracle the production sweep is diffed
// against. (The lease list and line set the old sweep also filled were
// never read and are left out.)

import (
	"fmt"
	"sort"

	"fusion/internal/cache"
)

func oracleCheckInvariants(t *Tile, now uint64) []string {
	var bad []string

	writers := make(map[uint64][]AXCID)
	for _, l0 := range t.L0Xs {
		l0 := l0
		l0.arr.ForEach(func(l *cache.Line) {
			if !l.Valid {
				return
			}
			if l.WTime > now {
				writers[l.Addr] = append(writers[l.Addr], l0.id)
			}
			if l.Dirty && l.WTime == 0 {
				bad = append(bad, fmt.Sprintf(
					"%s: dirty line %#x never held a write epoch", l0.name, l.Addr))
			}
			exp := l.LTime
			if l.WTime > exp {
				exp = l.WTime
			}
			if exp > now {
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
		})
	}
	waddrs := make([]uint64, 0, len(writers))
	for addr := range writers {
		waddrs = append(waddrs, addr)
	}
	sort.Slice(waddrs, func(i, j int) bool { return waddrs[i] < waddrs[j] })
	for _, addr := range waddrs {
		if ws := writers[addr]; len(ws) > 1 {
			bad = append(bad, fmt.Sprintf(
				"line %#x has %d simultaneous write epochs (%v)", addr, len(ws), ws))
		}
	}

	valid := 0
	t.L1X.arr.ForEach(func(l *cache.Line) {
		if !l.Valid {
			return
		}
		valid++
		ptr, ok := t.RMAP.Lookupless(l.PAddr)
		if !ok {
			bad = append(bad, fmt.Sprintf(
				"l1x line v%#x (p%#x) missing from AX-RMAP", l.Addr, uint64(l.PAddr)))
			return
		}
		if uint64(ptr.VAddr.LineAddr()) != l.Addr || ptr.PID != l.PID {
			bad = append(bad, fmt.Sprintf(
				"AX-RMAP points p%#x at v%#x, but the L1X line is v%#x",
				uint64(l.PAddr), uint64(ptr.VAddr), l.Addr))
		}
	})
	if rm := t.RMAP.Len(); rm != valid {
		bad = append(bad, fmt.Sprintf(
			"AX-RMAP tracks %d lines but the L1X holds %d", rm, valid))
	}
	return bad
}
