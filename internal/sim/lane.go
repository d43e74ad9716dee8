package sim

import "math/bits"

// laneSize bounds Complete's delay: the lane is a ring of laneSize
// one-cycle buckets, so every pending completion lies in [now, now+laneSize).
const (
	laneSize = 64
	laneMask = laneSize - 1
)

// completionLane holds fixed-latency completions (Engine.Complete): one
// FIFO bucket of callbacks per cycle over the next laneSize cycles, and an
// occupancy word whose bit b is set iff buckets[b] is non-empty. A drained
// bucket keeps its backing array, so a warmed lane completes without
// allocating.
type completionLane struct {
	count   int // callbacks pending across all buckets
	occ     uint64
	buckets [laneSize][]func(now uint64)
}

func (l *completionLane) push(at uint64, fn func(now uint64)) {
	b := at & laneMask
	l.buckets[b] = append(l.buckets[b], fn)
	l.occ |= 1 << b
	l.count++
}

// next reports the earliest cycle at or after now holding a completion.
func (l *completionLane) next(now uint64) (uint64, bool) {
	if l.occ == 0 {
		return 0, false
	}
	d := bits.TrailingZeros64(bits.RotateLeft64(l.occ, -int(now&laneMask)))
	return now + uint64(d), true
}

// drain runs now's bucket in FIFO order. A callback cannot refill the
// bucket being drained (Complete's delay is 1..laneSize-1), so the bucket
// is emptied before its callbacks run.
func (l *completionLane) drain(now uint64) {
	b := now & laneMask
	if l.occ&(1<<b) == 0 {
		return
	}
	q := l.buckets[b]
	l.buckets[b] = q[:0]
	l.occ &^= 1 << b
	l.count -= len(q)
	for i, fn := range q {
		q[i] = nil // the retired callback is collectable once it has run
		fn(now)
	}
}
