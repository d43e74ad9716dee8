package mesi

// The MESI invariant sweep as it was before it moved to reusable scratch:
// fresh maps per call and a sort over every held line. It stays here as
// the reference oracle the production sweep is diffed against, so a
// faster sweep can never quietly drop a check or reorder its report.

import (
	"fmt"
	"sort"

	"fusion/internal/cache"
)

func oracleCheckInvariants(dir *Directory, clients []*Client) []string {
	var bad []string

	type holder struct {
		id    AgentID
		state cache.State
	}
	holders := make(map[uint64][]holder)
	skip := make(map[uint64]bool)

	for _, c := range clients {
		c := c
		for _, a := range c.mshr.Outstanding() {
			skip[a] = true
		}
		for i := range c.evicting {
			skip[c.evicting[i].addr] = true
		}
		c.arr.ForEach(func(l *cache.Line) {
			if l.Valid {
				holders[l.Addr] = append(holders[l.Addr], holder{c.id, l.State})
			}
		})
	}
	dir.entries.ForEach(func(a uint64, ep **dirEntry) {
		if e := *ep; e.busy || len(e.queue) > 0 {
			skip[a] = true
		}
	})

	addrs := make([]uint64, 0, len(holders))
	for addr := range holders {
		addrs = append(addrs, addr)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, addr := range addrs {
		hs := holders[addr]
		if skip[addr] {
			continue
		}
		e, _ := dir.entries.Get(addr)
		var owners, sharers []holder
		for _, h := range hs {
			switch h.state {
			case cache.Invalid:
			case cache.Exclusive, cache.Modified:
				owners = append(owners, h)
			case cache.Shared:
				sharers = append(sharers, h)
			}
		}
		if len(owners) > 1 {
			bad = append(bad, fmt.Sprintf("line %#x has %d owners", addr, len(owners)))
		}
		if len(owners) == 1 && len(sharers) > 0 {
			bad = append(bad, fmt.Sprintf(
				"line %#x owned by agent %d while %d sharers hold S",
				addr, owners[0].id, len(sharers)))
		}
		if len(owners) == 1 {
			if e == nil || e.state != dirE || e.owner != owners[0].id {
				bad = append(bad, fmt.Sprintf(
					"line %#x: agent %d holds %v but the directory disagrees",
					addr, owners[0].id, owners[0].state))
			}
		}
		for _, sh := range sharers {
			if e == nil || e.state != dirS || !e.sharers.has(sh.id) {
				bad = append(bad, fmt.Sprintf(
					"line %#x: agent %d holds S but is not a recorded sharer",
					addr, sh.id))
			}
		}
	}
	return bad
}
