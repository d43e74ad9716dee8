// Package accel models fixed-function accelerator datapaths in the style of
// Aladdin (Section 4, "Modelling accelerator cores"): execution walks the
// constrained dependence structure of the offloaded function cycle by
// cycle, firing operations as their inputs and datapath resources allow,
// with an aggressive non-blocking memory interface.
//
// The dependence structure is the iteration pipeline of package trace:
// loads of an iteration are mutually independent; compute waits on the
// iteration's loads; stores wait on its compute; up to PipelineDepth
// iterations overlap. Memory-level parallelism is bounded by MLP
// outstanding requests — the knob that reproduces Table 1's per-function
// MLP spread (1.0–5.7).
package accel

import (
	"fusion/internal/energy"
	"fusion/internal/mem"
	"fusion/internal/sim"
	"fusion/internal/stats"
	"fusion/internal/trace"
)

// MemPort is the accelerator's view of its memory system: an L0X cache
// (FUSION), the shared L1X (SHARED), or a scratchpad (SCRATCH). Access
// returns false when the port cannot accept the request this cycle.
type MemPort interface {
	Access(kind mem.AccessKind, va mem.VAddr, done func(now uint64)) bool
}

// Config sets the datapath resources of one fixed-function accelerator.
type Config struct {
	IntALUs       int // integer ops retired per cycle
	FPUs          int // floating-point ops retired per cycle
	MemPorts      int // memory ops issued per cycle
	MLP           int // max outstanding memory requests
	PipelineDepth int // iterations in flight
}

// DefaultConfig is an aggressive fixed-function datapath: the paper assumes
// "an aggressive non-blocking interface to memory" (Section 4), which the
// deep iteration pipeline provides; the per-function MLP cap then bounds
// how much of it memory can actually absorb.
func DefaultConfig() Config {
	return Config{IntALUs: 4, FPUs: 2, MemPorts: 4, MLP: 6, PipelineDepth: 16}
}

// iterState tracks one in-flight iteration. Retired states recycle through
// a free list (every callback referencing one has fired by retirement).
type iterState struct {
	idx          int
	loadsIssued  int
	loadsDone    int
	computeLeft  int // cycles of compute remaining once loads complete
	storesIssued int
	storesDone   int
}

// memCb is a pooled completion callback for one memory access: it replaces
// the per-access closure (which allocated on every load/store issue). fn
// caches the bound method value so reuse allocates nothing.
type memCb struct {
	a    *Accelerator
	st   *iterState
	line uint64
	load bool
	fn   func(now uint64)
}

// done is the parked accelerator's only wake source: a completion is the
// only event that can give a no-op Tick something to do.
func (cb *memCb) done(uint64) {
	if cb.load {
		cb.st.loadsDone++
	} else {
		cb.st.storesDone++
	}
	a := cb.a
	if a.parked {
		a.parked, a.woken = false, true
	}
	a.release(cb.line)
	a.freeCbs = append(a.freeCbs, cb)
}

// Accelerator executes invocations against a MemPort. It is a sim.Ticker.
type Accelerator struct {
	name string
	cfg  Config
	eng  *sim.Engine

	inv    *trace.Invocation
	port   MemPort
	onDone func(now uint64)

	inflight  []*iterState
	freeIters []*iterState
	freeCbs   []*memCb
	nextIter  int
	// outstanding tracks in-flight memory requests at cache-line
	// granularity: several word accesses to one line count as a single
	// outstanding request (they merge in the cache's MSHR), matching how
	// the paper's Table 1 MLP is measured. Bounded by cfg.MLP, so a
	// linearly-scanned list replaces the former map.
	outstanding []lineCount

	startCycle uint64

	model energy.Model
	meter *energy.Meter

	cInvocations *stats.Counter
	cIntOps      *stats.Counter
	cFPOps       *stats.Counter
	cLoads       *stats.Counter
	cStores      *stats.Counter
	cCycles      *stats.Counter
	cMLPMilli    *stats.Counter

	// accumulated measurements
	mlpSamples uint64
	mlpSum     uint64

	// parked is set by a Tick that changed nothing: every later Tick would
	// repeat it until a memory completion lands, so Tick returns at once
	// and Idle reports true. parkedAt is the cycle of the parking Tick and
	// parkedOut its outstanding-line count, which cannot change while
	// parked; woken asks the first Tick after the wake to book the skipped
	// cycles' MLP samples.
	parked    bool
	woken     bool
	parkedAt  uint64
	parkedOut uint64
}

// lineCount is one outstanding line and its in-flight access count.
type lineCount struct {
	line  uint64
	count int
}

// outFind returns the index of line in the outstanding list, or -1.
func (a *Accelerator) outFind(line uint64) int {
	for i := range a.outstanding {
		if a.outstanding[i].line == line {
			return i
		}
	}
	return -1
}

// outInc bumps line's outstanding count, appending it if new.
func (a *Accelerator) outInc(line uint64) {
	if i := a.outFind(line); i >= 0 {
		a.outstanding[i].count++
		return
	}
	a.outstanding = append(a.outstanding, lineCount{line, 1})
}

// New builds an accelerator and registers it with the engine.
func New(eng *sim.Engine, name string, cfg Config,
	model energy.Model, meter *energy.Meter, st *stats.Set) *Accelerator {
	a := &Accelerator{name: name, cfg: cfg, eng: eng, model: model, meter: meter,
		cInvocations: st.Counter(name + ".invocations"),
		cIntOps:      st.Counter(name + ".int_ops"),
		cFPOps:       st.Counter(name + ".fp_ops"),
		cLoads:       st.Counter(name + ".loads"),
		cStores:      st.Counter(name + ".stores"),
		cCycles:      st.Counter(name + ".cycles"),
		cMLPMilli:    st.Counter(name + ".mlp_milli"),
	}
	eng.Register(a)
	return a
}

// Name implements sim.Ticker.
func (a *Accelerator) Name() string { return a.name }

// Busy reports whether an invocation is running.
func (a *Accelerator) Busy() bool { return a.inv != nil }

// Idle implements sim.IdleTicker: with no invocation loaded, or parked
// waiting on memory, Tick returns without touching any state, so the engine
// may fast-forward across the DMA-bound and drain stretches where the
// datapath sits unused and the stretches where it only waits on memory.
func (a *Accelerator) Idle() bool { return a.inv == nil || a.parked }

// Start launches an invocation. onDone fires the cycle the last operation
// retires. The accelerator must be idle.
func (a *Accelerator) Start(inv *trace.Invocation, port MemPort, onDone func(now uint64)) {
	if a.inv != nil {
		sim.Failf(a.name, a.eng.Now(), "", "Start while busy (running %s)", a.inv.Function)
	}
	a.inv = inv
	a.port = port
	a.onDone = onDone
	a.nextIter = 0
	a.inflight = a.inflight[:0]
	a.outstanding = a.outstanding[:0]
	a.parked, a.woken = false, false
	a.startCycle = a.eng.Now()
	a.cInvocations.Inc()
}

// getIter returns a zeroed iterState, reusing a retired one if possible.
func (a *Accelerator) getIter(idx, computeLeft int) *iterState {
	var st *iterState
	if n := len(a.freeIters); n > 0 {
		st = a.freeIters[n-1]
		a.freeIters[n-1] = nil
		a.freeIters = a.freeIters[:n-1]
		*st = iterState{}
	} else {
		st = &iterState{}
	}
	st.idx, st.computeLeft = idx, computeLeft
	return st
}

// getCb returns a ready-to-issue completion callback from the pool.
func (a *Accelerator) getCb(st *iterState, line uint64, load bool) *memCb {
	var cb *memCb
	if n := len(a.freeCbs); n > 0 {
		cb = a.freeCbs[n-1]
		a.freeCbs[n-1] = nil
		a.freeCbs = a.freeCbs[:n-1]
	} else {
		cb = &memCb{a: a}
		cb.fn = cb.done
	}
	cb.st, cb.line, cb.load = st, line, load
	return cb
}

// computeCycles returns how many cycles the compute phase of it occupies,
// given the datapath widths. Tick accounts the energy at admission.
func (a *Accelerator) computeCycles(it *trace.Iteration) int {
	ci := (it.IntOps + a.cfg.IntALUs - 1) / a.cfg.IntALUs
	cf := 0
	if it.FPOps > 0 {
		cf = (it.FPOps + a.cfg.FPUs - 1) / a.cfg.FPUs
	}
	c := ci
	if cf > c {
		c = cf
	}
	if c == 0 {
		c = 1
	}
	return c
}

// Tick advances the pipeline one cycle. A Tick that admits, issues,
// computes and retires nothing, and meets no port back-pressure, parks the
// accelerator until the next memory completion.
func (a *Accelerator) Tick(now uint64) {
	if a.inv == nil || a.parked {
		return
	}
	if a.woken {
		// Book the cycles skipped while parked, each of which would have
		// sampled the parking Tick's outstanding count.
		a.woken = false
		if skipped := now - a.parkedAt - 1; a.parkedOut > 0 {
			a.mlpSamples += skipped
			a.mlpSum += skipped * a.parkedOut
		}
	}
	// MLP is averaged over cycles with memory outstanding (the standard
	// definition; idle-memory compute cycles do not dilute it).
	if n := len(a.outstanding); n > 0 {
		a.mlpSamples++
		a.mlpSum += uint64(n)
	}
	// acted records any state change other than an issued access (those
	// count in memIssued), or a refused Access, whose retry is owed next
	// cycle. A Tick with neither parks.
	acted := false

	// Admit new iterations into the pipeline. A Serial invocation admits
	// the next iteration only once every in-flight iteration's compute has
	// finished (its stores may still be draining).
	for len(a.inflight) < a.cfg.PipelineDepth && a.nextIter < len(a.inv.Iterations) {
		if a.inv.Serial && !a.computeDrained() {
			break
		}
		it := &a.inv.Iterations[a.nextIter]
		st := a.getIter(a.nextIter, a.computeCycles(it))
		if a.meter != nil {
			a.meter.Add(energy.CatCompute,
				float64(it.IntOps)*a.model.IntOp+float64(it.FPOps)*a.model.FPOp)
		}
		a.cIntOps.Add(int64(it.IntOps))
		a.cFPOps.Add(int64(it.FPOps))
		a.inflight = append(a.inflight, st)
		a.nextIter++
		acted = true
	}

	memIssued := 0

	// Issue loads (oldest iteration first), then advance compute, then
	// issue stores of iterations whose compute is done.
	for _, st := range a.inflight {
		if memIssued >= a.cfg.MemPorts {
			break // ports exhausted; no younger iteration can issue
		}
		it := &a.inv.Iterations[st.idx]
		for st.loadsIssued < len(it.Loads) && memIssued < a.cfg.MemPorts {
			addr := it.Loads[st.loadsIssued]
			line := uint64(addr) >> 6
			if a.outFind(line) < 0 && len(a.outstanding) >= a.cfg.MLP {
				break // a fresh line would exceed the MLP cap
			}
			cb := a.getCb(st, line, true)
			if !a.port.Access(mem.Load, addr, cb.fn) {
				a.freeCbs = append(a.freeCbs, cb)
				acted = true
				break // port back-pressure; retry next cycle
			}
			a.outInc(line)
			st.loadsIssued++
			memIssued++
			a.cLoads.Inc()
		}
	}

	for _, st := range a.inflight {
		it := &a.inv.Iterations[st.idx]
		if st.loadsDone == len(it.Loads) && st.computeLeft > 0 {
			st.computeLeft--
			acted = true
		}
	}

	for _, st := range a.inflight {
		if memIssued >= a.cfg.MemPorts {
			break // ports exhausted; no younger iteration can issue
		}
		it := &a.inv.Iterations[st.idx]
		if st.loadsDone < len(it.Loads) || st.computeLeft > 0 {
			continue
		}
		for st.storesIssued < len(it.Stores) && memIssued < a.cfg.MemPorts {
			addr := it.Stores[st.storesIssued]
			line := uint64(addr) >> 6
			if a.outFind(line) < 0 && len(a.outstanding) >= a.cfg.MLP {
				break
			}
			cb := a.getCb(st, line, false)
			if !a.port.Access(mem.Store, addr, cb.fn) {
				a.freeCbs = append(a.freeCbs, cb)
				acted = true
				break
			}
			a.outInc(line)
			st.storesIssued++
			memIssued++
			a.cStores.Inc()
		}
	}

	// Retire completed iterations from the head of the pipeline (in order),
	// then copy the survivors down so the pipeline reuses one backing array
	// instead of creeping along it and reallocating.
	retired := 0
	for _, st := range a.inflight {
		it := &a.inv.Iterations[st.idx]
		if st.loadsDone < len(it.Loads) || st.computeLeft > 0 ||
			st.storesDone < len(it.Stores) {
			break
		}
		a.freeIters = append(a.freeIters, st)
		a.eng.Progress() // an iteration retiring is forward progress
		retired++
	}
	if retired > 0 {
		n := copy(a.inflight, a.inflight[retired:])
		clear(a.inflight[n:])
		a.inflight = a.inflight[:n]
		acted = true
	}

	if len(a.inflight) == 0 && a.nextIter == len(a.inv.Iterations) && len(a.outstanding) == 0 {
		done := a.onDone
		a.cCycles.Add(int64(now - a.startCycle))
		// Emergent MLP in thousandths — the measured counterpart of
		// Table 1's MLP column (cumulative over invocations).
		a.cMLPMilli.Set(int64(a.AvgMLP() * 1000))
		a.inv, a.port, a.onDone = nil, nil, nil
		if done != nil {
			done(now)
		}
		return
	}
	if !acted && memIssued == 0 {
		a.parked, a.parkedAt, a.parkedOut = true, now, uint64(len(a.outstanding))
	}
}

// computeDrained reports whether every in-flight iteration has finished its
// loads and compute (Serial admission gate).
func (a *Accelerator) computeDrained() bool {
	for _, st := range a.inflight {
		it := &a.inv.Iterations[st.idx]
		if st.loadsDone < len(it.Loads) || st.computeLeft > 0 {
			return false
		}
	}
	return true
}

// release retires one access against its line's outstanding count.
func (a *Accelerator) release(line uint64) {
	i := a.outFind(line)
	a.outstanding[i].count--
	if a.outstanding[i].count <= 0 {
		last := len(a.outstanding) - 1
		a.outstanding[i] = a.outstanding[last]
		a.outstanding = a.outstanding[:last]
	}
}

// AvgMLP returns the observed mean outstanding memory requests while busy.
func (a *Accelerator) AvgMLP() float64 {
	if a.mlpSamples == 0 {
		return 0
	}
	return float64(a.mlpSum) / float64(a.mlpSamples)
}
