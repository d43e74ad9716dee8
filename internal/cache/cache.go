// Package cache provides the generic set-associative storage used by every
// cache in the simulated hierarchy: the host L1D, the shared L2/LLC banks,
// the accelerator tile's private L0X and shared L1X, and (degenerately) the
// scratchpads.
//
// A Line carries the union of the metadata the different protocols need:
// MESI state bits for host-side caches, and the ACC protocol's lease
// timestamps (LTIME/GTIME, Section 3.2 of the paper) for accelerator-tile
// caches. Unused fields stay zero; keeping one Line type avoids a parallel
// generic hierarchy for what is fundamentally the same SRAM array.
package cache

import (
	"fmt"

	"fusion/internal/mem"
	"fusion/internal/sim"
)

// State is a protocol-defined line state. The zero value is Invalid for
// every protocol in this simulator.
type State uint8

// MESI states (host L1, L2 directory-side copies) and the MEI subset the
// shared L1X exposes to the host protocol (Section 3.2: "the shared L1X
// states map to a 3-state MEI protocol").
const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Line is one cache line's tag-array entry.
type Line struct {
	// The narrow fields share the first word, so a Line is exactly one
	// 64-byte host cache line (pinned by TestLineSize).
	Valid bool
	Dirty bool
	WLock bool // L1X: a write epoch is outstanding; readers/writers stall
	State State
	PID   mem.PID // process tag (accelerator tile only, Section 3.2)

	Addr uint64 // line-aligned address (virtual in the tile, physical host-side)

	// ACC protocol timestamps (absolute cycles).
	LTime uint64 // L0X: read-lease expiry (LTIME)
	WTime uint64 // L0X: write-epoch expiry; 0 when no write epoch held
	GTime uint64 // L1X: latest lease granted to any L0X (GTIME)

	// PAddr is the translated physical address, recorded at the L1X on fill
	// so writebacks and evictions do not need a second AX-TLB lookup.
	PAddr mem.PAddr

	// Ver is the modeled payload: a per-line version number bumped on every
	// store. The simulator does not track real bytes; version monotonicity
	// lets tests detect lost or stale data anywhere in the hierarchy.
	Ver uint64

	lru uint64 // last-touch stamp for LRU replacement
}

// Params describes a cache geometry.
type Params struct {
	SizeBytes int
	Ways      int
	LineBytes int
}

// Sets returns the number of sets implied by the geometry.
func (p Params) Sets() int {
	s := p.SizeBytes / (p.Ways * p.LineBytes)
	if s < 1 {
		return 1
	}
	return s
}

// Array is a set-associative tag/data array with true-LRU replacement.
type Array struct {
	params    Params
	sets      int
	lineShift uint
	lines     []Line // sets*ways, row-major by set
	stamp     uint64
}

// NewArray builds an array. SizeBytes must be a multiple of Ways*LineBytes
// and LineBytes a power of two.
func NewArray(p Params) *Array {
	if p.LineBytes == 0 || p.LineBytes&(p.LineBytes-1) != 0 {
		sim.Failf("cache", 0, "", "line size %d not a power of two", p.LineBytes)
	}
	sets := p.Sets()
	if sets*p.Ways*p.LineBytes != p.SizeBytes {
		sim.Failf("cache", 0, "", "size %d not divisible into %d ways of %d-byte lines",
			p.SizeBytes, p.Ways, p.LineBytes)
	}
	shift := uint(0)
	for 1<<shift < p.LineBytes {
		shift++
	}
	return &Array{
		params:    p,
		sets:      sets,
		lineShift: shift,
		lines:     make([]Line, sets*p.Ways),
	}
}

// Params returns the geometry the array was built with.
func (a *Array) Params() Params { return a.params }

// SetIndex returns the set index for addr.
func (a *Array) SetIndex(addr uint64) int {
	return int((addr >> a.lineShift) % uint64(a.sets))
}

// align clears the line-offset bits.
func (a *Array) align(addr uint64) uint64 {
	return addr &^ (uint64(a.params.LineBytes) - 1)
}

// set returns the slice of ways for addr's set.
func (a *Array) set(addr uint64) []Line {
	i := a.SetIndex(addr)
	return a.lines[i*a.params.Ways : (i+1)*a.params.Ways]
}

// Lookup returns the line holding addr (any PID) and refreshes its LRU
// stamp, or nil on miss.
func (a *Array) Lookup(addr uint64) *Line {
	return a.lookup(addr, 0, false)
}

// LookupPID is Lookup restricted to lines tagged with pid. Accelerator-tile
// caches are PID-tagged so functions from different processes can coexist.
func (a *Array) LookupPID(addr uint64, pid mem.PID) *Line {
	return a.lookup(addr, pid, true)
}

func (a *Array) lookup(addr uint64, pid mem.PID, checkPID bool) *Line {
	want := a.align(addr)
	set := a.set(addr)
	for i := range set {
		l := &set[i]
		if l.Valid && l.Addr == want && (!checkPID || l.PID == pid) {
			a.stamp++
			l.lru = a.stamp
			return l
		}
	}
	return nil
}

// Peek is Lookup without the LRU update (used by snoops and statistics).
func (a *Array) Peek(addr uint64) *Line {
	want := a.align(addr)
	set := a.set(addr)
	for i := range set {
		l := &set[i]
		if l.Valid && l.Addr == want {
			return l
		}
	}
	return nil
}

// Victim returns the line to fill for addr: an invalid way if one exists,
// otherwise the least-recently-used line in the set. The caller inspects
// Valid/Dirty to decide whether an eviction (writeback) is needed, then
// overwrites the fields.
func (a *Array) Victim(addr uint64) *Line {
	set := a.set(addr)
	var victim *Line
	for i := range set {
		l := &set[i]
		if !l.Valid {
			return l
		}
		if victim == nil || l.lru < victim.lru {
			victim = l
		}
	}
	return victim
}

// Fill installs addr into line (typically a Victim result), resetting all
// metadata and refreshing LRU.
func (a *Array) Fill(l *Line, addr uint64, pid mem.PID) {
	a.stamp++
	*l = Line{Valid: true, Addr: a.align(addr), PID: pid, lru: a.stamp}
}

// Touch refreshes the LRU stamp of l.
func (a *Array) Touch(l *Line) {
	a.stamp++
	l.lru = a.stamp
}

// ForEach visits every line, valid or not, in deterministic (set, way)
// order. The visitor may mutate lines.
func (a *Array) ForEach(fn func(*Line)) {
	for i := range a.lines {
		fn(&a.lines[i])
	}
}

// NumLines returns sets*ways, the bound for line-slot indices.
func (a *Array) NumLines() int { return len(a.lines) }

// LineAt returns the line at slot i (row-major by set, as SlotOf numbers
// them).
func (a *Array) LineAt(i int) *Line { return &a.lines[i] }

// SlotOf returns the dense (set, way) slot index of l, which must be a
// line of addr's set (as returned by Lookup/Victim/Peek for addr).
// Controllers use the slot to key per-line side state — stall lists,
// holder tags — in flat arrays parallel to the tag array, instead of
// address-keyed maps.
func (a *Array) SlotOf(addr uint64, l *Line) int {
	base := a.SetIndex(addr) * a.params.Ways
	set := a.lines[base : base+a.params.Ways]
	for i := range set {
		if &set[i] == l {
			return base + i
		}
	}
	sim.Failf("cache", 0, "", "SlotOf: line %#x not in set of addr %#x", l.Addr, addr)
	return -1
}

// CountValid returns the number of valid lines.
func (a *Array) CountValid() int {
	n := 0
	for i := range a.lines {
		if a.lines[i].Valid {
			n++
		}
	}
	return n
}

// InvalidateAll clears every line.
func (a *Array) InvalidateAll() {
	for i := range a.lines {
		a.lines[i] = Line{}
	}
}
