// Package flat provides a dense open-addressing hash map from uint64 keys,
// the replacement for map[uint64]V in simulator hot paths. Versus the
// runtime map it offers: no per-operation hashing interface overhead, an
// occupancy bitmap so Clear is a handful of word stores instead of a
// reallocation, and deterministic slot-order iteration.
//
// The map intentionally has no Delete: every hot-path table it backs (the
// MESI directory, the Dx forward table, scratchpad lines) only ever
// inserts, updates, or clears wholesale, and omitting deletion means no
// tombstones and a trivially correct linear probe.
package flat

import "math/bits"

const minSize = 16

// Map is an open-addressing hash table with uint64 keys and linear
// probing. The zero value is not ready; use New.
type Map[V any] struct {
	keys []uint64
	vals []V
	occ  []uint64 // occupancy bitmap: bit i set when slot i holds a key
	mask uint64
	n    int
	max  int // grow when n reaches max (3/4 load)
}

// New returns a map pre-sized to hold at least capHint entries without
// growing.
func New[V any](capHint int) *Map[V] {
	size := minSize
	for size*3/4 < capHint {
		size *= 2
	}
	return &Map[V]{
		keys: make([]uint64, size),
		vals: make([]V, size),
		occ:  make([]uint64, size/64+1),
		mask: uint64(size - 1),
		max:  size * 3 / 4,
	}
}

// hash is a splitmix64-style finalizer: full-avalanche, so line addresses
// (low bits zero) spread across the table.
func hash(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}

func (m *Map[V]) occupied(i uint64) bool { return m.occ[i>>6]&(1<<(i&63)) != 0 }

// Ptr returns a pointer to the value stored under k, or nil. The pointer
// is invalidated by the next Put (growth may move the backing array);
// callers must not retain it across inserts.
func (m *Map[V]) Ptr(k uint64) *V {
	for i := hash(k) & m.mask; m.occupied(i); i = (i + 1) & m.mask {
		if m.keys[i] == k {
			return &m.vals[i]
		}
	}
	return nil
}

// Get returns the value stored under k and whether it was present.
func (m *Map[V]) Get(k uint64) (V, bool) {
	if p := m.Ptr(k); p != nil {
		return *p, true
	}
	var zero V
	return zero, false
}

// Put stores v under k, replacing any existing value, and returns a
// pointer to the stored slot (same invalidation rule as Ptr).
func (m *Map[V]) Put(k uint64, v V) *V {
	if m.n >= m.max {
		m.grow()
	}
	i := hash(k) & m.mask
	for ; m.occupied(i); i = (i + 1) & m.mask {
		if m.keys[i] == k {
			m.vals[i] = v
			return &m.vals[i]
		}
	}
	m.keys[i] = k
	m.vals[i] = v
	m.occ[i>>6] |= 1 << (i & 63)
	m.n++
	return &m.vals[i]
}

// Upsert returns a pointer to the value stored under k, inserting the zero
// value first when k is absent; existed reports whether k was present.
// One probe serves both the lookup and the insert (same invalidation rule
// as Ptr).
func (m *Map[V]) Upsert(k uint64) (v *V, existed bool) {
	if m.n >= m.max {
		m.grow()
	}
	i := hash(k) & m.mask
	for ; m.occupied(i); i = (i + 1) & m.mask {
		if m.keys[i] == k {
			return &m.vals[i], true
		}
	}
	var zero V
	m.keys[i] = k
	m.vals[i] = zero
	m.occ[i>>6] |= 1 << (i & 63)
	m.n++
	return &m.vals[i], false
}

func (m *Map[V]) grow() {
	old := *m
	size := int(m.mask+1) * 2
	m.keys = make([]uint64, size)
	m.vals = make([]V, size)
	m.occ = make([]uint64, size/64+1)
	m.mask = uint64(size - 1)
	m.max = size * 3 / 4
	m.n = 0
	for w, word := range old.occ {
		for ; word != 0; word &= word - 1 {
			i := uint64(w<<6 + bits.TrailingZeros64(word))
			m.Put(old.keys[i], old.vals[i])
		}
	}
}

// Len returns the number of stored entries.
func (m *Map[V]) Len() int { return m.n }

// Clear removes every entry without releasing storage: it zeroes the
// occupancy words, so a steady-state clear-and-refill cycle never
// allocates. Cleared values stay in the backing array until overwritten;
// do not store values whose liveness matters past a Clear.
func (m *Map[V]) Clear() {
	if m.n == 0 {
		return
	}
	for i := range m.occ {
		m.occ[i] = 0
	}
	m.n = 0
}

// ForEach visits every entry in slot order — deterministic for a given
// insertion history, but not sorted; callers that need key order must
// collect and sort.
func (m *Map[V]) ForEach(fn func(k uint64, v *V)) {
	for w, word := range m.occ {
		for ; word != 0; word &= word - 1 {
			i := uint64(w<<6 + bits.TrailingZeros64(word))
			fn(m.keys[i], &m.vals[i])
		}
	}
}
