package main

import (
	"container/heap"
	"runtime"
	"time"
)

// The host this benchmark runs on is often shared: its speed drifts by up
// to 1.8x over minutes as neighbours load the shared caches and memory,
// while a register-only loop keeps its speed. So every end-to-end host time
// is scaled to a reference speed. Between the cells of a pass (and before
// each set-up) the benchmark times refKernel, a fixed event loop of its own
// that uses a binary heap, a map and small allocations the way the
// simulator does. A pass's speed factor is the median kernel time over the
// pass divided by refKernelMS, and the pass's host times are divided by
// it. A change to the simulator does not touch the kernel, so a change that
// makes the simulator 20% faster makes the scaled times 20% lower. The raw
// times are printed in the report too.

// refKernelMS is the kernel's time on a 2-vCPU Xeon VM in its usual state.
// A scaled time is what the measured time would have been on a host where
// the kernel takes refKernelMS.
const refKernelMS = 5.0

// meterEvery is how much measured work runs between two kernel runs inside
// a pass: the kernel adds about 5% to a pass.
const meterEvery = 100 * time.Millisecond

// boundaryRuns is how many kernel runs a pass boundary or a set-up takes.
const boundaryRuns = 5

// refEvent is one event of the kernel's event loop.
type refEvent struct {
	at      uint64
	id      int
	payload []byte
}

type refQueue []*refEvent

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Less(i, j int) bool { return q[i].at < q[j].at }
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)        { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

// refKernel runs 25,000 events of a fixed event loop: pop the earliest
// event, update a per-id map entry, and schedule a new event with a fresh
// payload. It returns a value derived from the final state, so that the
// work cannot be optimised away.
func refKernel() uint64 {
	q := &refQueue{}
	state := make(map[int]uint64)
	x := uint64(7)
	for i := 0; i < 64; i++ {
		heap.Push(q, &refEvent{at: uint64(i), id: i})
	}
	for n := 0; n < 25000; n++ {
		e := heap.Pop(q).(*refEvent)
		x = x*6364136223846793005 + 1442695040888963407
		state[e.id] += e.at
		heap.Push(q, &refEvent{at: e.at + 1 + x>>60, id: int(x>>40) & 1023, payload: make([]byte, 32)})
	}
	return uint64(len(state)) + x
}

// refSink keeps refKernel's results live.
var refSink uint64

// speedMeter times refKernel between pieces of measured work. Its kernel
// time and allocation are kept apart, so that they can be taken out of the
// pass's.
type speedMeter struct {
	samplesMS  []float64
	kernelS    float64 // time spent in the kernel
	allocBytes uint64  // bytes the kernel allocated
	since      time.Duration
}

// run times n kernel runs. Its whole time, reading the allocation
// counters included, counts as kernel time.
func (m *speedMeter) run(n int) {
	var before, after runtime.MemStats
	t0 := time.Now()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		k0 := time.Now()
		refSink += refKernel()
		m.samplesMS = append(m.samplesMS, float64(time.Since(k0).Nanoseconds())/1e6)
	}
	runtime.ReadMemStats(&after)
	m.allocBytes += after.TotalAlloc - before.TotalAlloc
	m.kernelS += time.Since(t0).Seconds()
}

// boundary collects the heap, so that no garbage of the measured work is
// collected on the kernel's time, and times boundaryRuns kernel runs.
func (m *speedMeter) boundary() {
	runtime.GC()
	m.run(boundaryRuns)
}

// worked records d of measured work and runs the kernel once per
// meterEvery of it. A nil meter does nothing.
func (m *speedMeter) worked(d time.Duration) {
	if m == nil {
		return
	}
	m.since += d
	if m.since >= meterEvery {
		m.since = 0
		m.run(1)
	}
}

// factor is what the host times measured beside the samples are divided
// by: above 1 when the host ran slower than the reference.
func (m *speedMeter) factor() float64 { return median(m.samplesMS) / refKernelMS }
