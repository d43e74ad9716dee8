package mesi

// Runtime invariant checking for the host MESI protocol, mirroring the ACC
// checker in internal/acc: CheckInvariants cross-examines the directory's
// view against the actual cache contents of a set of clients.

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"fusion/internal/cache"
	"fusion/internal/flat"
	"fusion/internal/mem"
)

// CheckInvariants compares the directory's records with the clients'
// caches and returns every inconsistency found (empty means clean). Lines
// with in-flight transactions (busy at the directory, outstanding at a
// client, or in an eviction buffer) are skipped — transient states are
// allowed to disagree.
//
// Checked invariants on quiescent lines:
//
//  1. Single owner: at most one client holds a line in E or M.
//  2. Owner tracking: a client in E/M is the directory's recorded owner.
//  3. Exclusivity: no client holds S while another holds E/M.
//  4. Sharer soundness: a client holding S appears in the directory's
//     sharer set (the converse does not hold — S lines drop silently).
func CheckInvariants(dir *Directory, clients []*Client) []string {
	sc := &dir.inv
	if sc.lines == nil {
		sc.lines = flat.New[lineTally](1024)
	}
	sc.lines.Clear()
	sc.bad = sc.bad[:0]

	// Tally every held line's owners and sharers.
	for _, c := range clients {
		for i, n := 0, c.arr.NumLines(); i < n; i++ {
			l := c.arr.LineAt(i)
			if !l.Valid {
				continue
			}
			t, _ := sc.lines.Upsert(l.Addr)
			switch l.State {
			case cache.Invalid:
				// An invalid way holds nothing; it is not a holder.
			case cache.Exclusive, cache.Modified:
				t.owner, t.ownerState = c.id, l.State
				t.owners++
			case cache.Shared:
				t.sharers++
			}
		}
	}
	// Client-side transients: an outstanding miss or a buffered eviction.
	// Directory-side ones (busy or queued) are checked per line below.
	for _, c := range clients {
		for w := c.mshr.Occupied(); w != 0; w &= w - 1 {
			sc.skip(c.mshr.AddrAt(bits.TrailingZeros64(w)))
		}
		for i := range c.evicting {
			sc.skip(c.evicting[i].addr)
		}
	}

	// Visit holders again in the same order. A line's own checks run at
	// its first holder; each sharer is checked where it sits.
	for _, c := range clients {
		for i, n := 0, c.arr.NumLines(); i < n; i++ {
			l := c.arr.LineAt(i)
			if !l.Valid {
				continue
			}
			addr := l.Addr
			t := sc.lines.Ptr(addr)
			if !t.visited {
				t.visited = true
				t.entry, _ = dir.entries.Get(addr)
				if e := t.entry; e != nil && (e.busy || len(e.queue) > 0) {
					t.skip = true
				}
				if !t.skip {
					sc.checkOwner(addr, t)
				}
			}
			if t.skip || l.State != cache.Shared {
				continue
			}
			if e := t.entry; e == nil || e.state != dirS || !e.sharers.has(c.id) {
				sc.report(addr, fmt.Sprintf(
					"line %#x: agent %d holds S but is not a recorded sharer",
					addr, c.id))
			}
		}
	}
	return sc.sorted()
}

// invScratch is the directory-owned working set of CheckInvariants, kept
// across sweeps so a clean sweep allocates nothing once warm.
type invScratch struct {
	lines *flat.Map[lineTally]
	bad   []violation
}

// lineTally is one held line's summary for a sweep.
type lineTally struct {
	owners, sharers int
	owner           AgentID // an E/M holder, named only when it is the one
	ownerState      cache.State
	skip            bool      // in flight somewhere: not checked
	visited         bool      // the line's own checks have run
	entry           *dirEntry // the directory record, fetched at first visit
}

// violation is one report line, tagged with its address for ordering.
type violation struct {
	addr uint64
	msg  string
}

// skip marks a held line as transient; unheld addresses are ignored.
func (sc *invScratch) skip(addr uint64) {
	if t := sc.lines.Ptr(addr); t != nil {
		t.skip = true
	}
}

func (sc *invScratch) report(addr uint64, msg string) {
	sc.bad = append(sc.bad, violation{addr, msg})
}

// checkOwner runs the single-owner, exclusivity and owner-tracking checks
// on one quiescent line.
func (sc *invScratch) checkOwner(addr uint64, t *lineTally) {
	if t.owners > 1 {
		sc.report(addr, fmt.Sprintf("line %#x has %d owners", addr, t.owners))
	}
	if t.owners != 1 {
		return
	}
	if t.sharers > 0 {
		sc.report(addr, fmt.Sprintf(
			"line %#x owned by agent %d while %d sharers hold S",
			addr, t.owner, t.sharers))
	}
	if e := t.entry; e == nil || e.state != dirE || e.owner != t.owner {
		sc.report(addr, fmt.Sprintf(
			"line %#x: agent %d holds %v but the directory disagrees",
			addr, t.owner, t.ownerState))
	}
}

// sorted returns the report in ascending address order, keeping each
// line's messages in the order they were found (nil when clean). Only
// the violations are sorted, never the lines.
func (sc *invScratch) sorted() []string {
	if len(sc.bad) == 0 {
		return nil
	}
	slices.SortStableFunc(sc.bad, func(a, b violation) int { return cmp.Compare(a.addr, b.addr) })
	out := make([]string, len(sc.bad))
	for i, v := range sc.bad {
		out[i] = v.msg
	}
	return out
}

// Quiesced reports whether the directory has no busy or queued lines (used
// by tests to decide when a full invariant sweep is meaningful).
func (dir *Directory) Quiesced() bool {
	quiet := true
	dir.entries.ForEach(func(_ uint64, ep **dirEntry) {
		if e := *ep; e.busy || len(e.queue) > 0 {
			quiet = false
		}
	})
	return quiet
}

// LineAddrFor exposes line alignment for test helpers.
func LineAddrFor(a mem.PAddr) uint64 { return uint64(a.LineAddr()) }
