// Package host models the host out-of-order core of Table 2: 4-wide, a
// 96-entry ROB, 32-entry load and store queues, 6 integer ALUs and 2 FPUs,
// fed by the 64 KB L1D (a mesi.Client).
//
// The core is trace-driven, like the paper's macsim-based host model: it
// executes the iteration-structured trace of a host phase (e.g. step3() of
// Figure 1), dispatching into the ROB, issuing memory operations through
// the L1 as capacity allows, and committing in order. Its role in the
// evaluation is to produce and consume the data that migrates to and from
// the accelerator tile, as the MESI requester the tile interacts with.
package host

import (
	"fusion/internal/mem"
	"fusion/internal/mesi"
	"fusion/internal/sim"
	"fusion/internal/stats"
	"fusion/internal/trace"
)

// Config sets the core's resources (defaults follow Table 2).
type Config struct {
	Width   int // fetch/dispatch/commit width
	ROB     int
	LQ, SQ  int
	IntALUs int
	FPUs    int
}

// DefaultConfig matches Table 2.
func DefaultConfig() Config {
	return Config{Width: 4, ROB: 96, LQ: 32, SQ: 32, IntALUs: 6, FPUs: 2}
}

type opKind uint8

const (
	opInt opKind = iota
	opFP
	opLoad
	opStore
)

type opState uint8

const (
	opWaiting opState = iota // dependencies not satisfied
	opReady                  // may issue
	opIssued                 // in flight
	opDone
)

type hostOp struct {
	kind  opKind
	addr  mem.VAddr
	iter  int
	state opState
}

// Core HandleEvent opcodes.
const (
	opHostComputeDone = 0 // compute op at index arg retires
)

// memCb is a pooled completion callback for one L1 access, replacing the
// per-access closure. fn caches the bound method value so reuse allocates
// nothing. The op index is stable: c.ops only changes in Start, and a phase
// cannot end with callbacks outstanding.
type memCb struct {
	c    *Core
	idx  int
	load bool
	fn   func(now uint64)
}

func (cb *memCb) done(uint64) {
	c := cb.c
	op := &c.ops[cb.idx]
	op.state = opDone
	if cb.load {
		c.loadsLeft[op.iter]--
		c.inLQ--
	} else {
		c.inSQ--
	}
	c.freeCbs = append(c.freeCbs, cb)
}

// Core is the host OOO processor. It is a sim.Ticker.
type Core struct {
	name string
	cfg  Config
	eng  *sim.Engine
	l1   *mesi.Client

	inv       *trace.Invocation
	translate func(va mem.VAddr) mem.PAddr
	onDone    func(now uint64)

	ops      []hostOp // full instruction stream in program order
	head     int      // commit pointer
	dispatch int      // next op to enter the ROB
	inROB    int
	inLQ     int
	inSQ     int

	// iterLoads tracks outstanding loads per iteration for dependence.
	loadsLeft   []int
	computeLeft []int

	freeCbs []*memCb

	cPhases    *stats.Counter
	cLoads     *stats.Counter
	cStores    *stats.Counter
	cCommitted *stats.Counter
}

// New builds a core over its L1 client and registers it with the engine.
func New(eng *sim.Engine, name string, cfg Config, l1 *mesi.Client, st *stats.Set) *Core {
	c := &Core{name: name, cfg: cfg, eng: eng, l1: l1,
		cPhases:    st.Counter(name + ".phases"),
		cLoads:     st.Counter(name + ".loads"),
		cStores:    st.Counter(name + ".stores"),
		cCommitted: st.Counter(name + ".committed"),
	}
	eng.Register(c)
	return c
}

// Name implements sim.Ticker.
func (c *Core) Name() string { return c.name }

// Busy reports whether a phase is executing.
func (c *Core) Busy() bool { return c.inv != nil }

// Idle implements sim.IdleTicker: with no phase loaded, Tick returns
// without touching any state, so accelerator-phase and DMA stretches can
// be fast-forwarded past the host core.
func (c *Core) Idle() bool { return c.inv == nil }

// Start begins executing a host phase. translate maps the program's virtual
// addresses to physical ones (the host L1 is physically addressed). onDone
// fires when the last instruction commits.
func (c *Core) Start(inv *trace.Invocation, translate func(mem.VAddr) mem.PAddr, onDone func(now uint64)) {
	if c.inv != nil {
		sim.Failf(c.name, c.eng.Now(), "", "Start while busy (running %s)", c.inv.Function)
	}
	c.inv = inv
	c.translate = translate
	c.onDone = onDone
	c.ops = c.ops[:0]
	c.loadsLeft = resize(c.loadsLeft, len(inv.Iterations))
	c.computeLeft = resize(c.computeLeft, len(inv.Iterations))
	for i := range inv.Iterations {
		it := &inv.Iterations[i]
		for _, a := range it.Loads {
			c.ops = append(c.ops, hostOp{kind: opLoad, addr: a, iter: i})
		}
		for k := 0; k < it.IntOps; k++ {
			c.ops = append(c.ops, hostOp{kind: opInt, iter: i})
		}
		for k := 0; k < it.FPOps; k++ {
			c.ops = append(c.ops, hostOp{kind: opFP, iter: i})
		}
		for _, a := range it.Stores {
			c.ops = append(c.ops, hostOp{kind: opStore, addr: a, iter: i})
		}
		c.loadsLeft[i] = len(it.Loads)
		c.computeLeft[i] = it.IntOps + it.FPOps
	}
	c.head, c.dispatch, c.inROB, c.inLQ, c.inSQ = 0, 0, 0, 0, 0
	c.cPhases.Inc()
}

// resize returns s with length n, reusing capacity (contents undefined; the
// caller overwrites every element).
func resize(s []int, n int) []int {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int, n)
}

// HandleEvent retires compute ops (closure-free events).
func (c *Core) HandleEvent(now uint64, op uint8, arg uint64) {
	switch op {
	case opHostComputeDone:
		o := &c.ops[arg]
		o.state = opDone
		c.computeLeft[o.iter]--
	}
}

// getCb returns a ready-to-issue L1 completion callback from the pool.
func (c *Core) getCb(idx int, load bool) *memCb {
	var cb *memCb
	if n := len(c.freeCbs); n > 0 {
		cb = c.freeCbs[n-1]
		c.freeCbs[n-1] = nil
		c.freeCbs = c.freeCbs[:n-1]
	} else {
		cb = &memCb{c: c}
		cb.fn = cb.done
	}
	cb.idx, cb.load = idx, load
	return cb
}

// ready reports whether op's dependencies are satisfied: loads are always
// ready; compute waits on its iteration's loads; stores wait on loads and
// compute.
func (c *Core) ready(op *hostOp) bool {
	switch op.kind {
	case opLoad:
		return true
	case opInt, opFP:
		return c.loadsLeft[op.iter] == 0
	default:
		return c.loadsLeft[op.iter] == 0 && c.computeLeft[op.iter] == 0
	}
}

// Tick advances the pipeline.
func (c *Core) Tick(now uint64) {
	if c.inv == nil {
		return
	}

	// Dispatch into the ROB.
	for n := 0; n < c.cfg.Width && c.dispatch < len(c.ops) && c.inROB < c.cfg.ROB; n++ {
		c.dispatch++
		c.inROB++
	}

	// Issue: walk the ROB window oldest-first, respecting per-cycle
	// functional-unit and queue limits.
	alu, fpu, memOps := c.cfg.IntALUs, c.cfg.FPUs, c.cfg.Width
	for i := c.head; i < c.dispatch; i++ {
		if alu == 0 && fpu == 0 && memOps == 0 {
			break
		}
		op := &c.ops[i]
		if op.state != opWaiting || !c.ready(op) {
			continue
		}
		switch op.kind {
		case opInt:
			if alu == 0 {
				continue
			}
			alu--
			op.state = opIssued
			c.eng.ScheduleCall(1, c, opHostComputeDone, uint64(i))
		case opFP:
			if fpu == 0 {
				continue
			}
			fpu--
			op.state = opIssued
			c.eng.ScheduleCall(3, c, opHostComputeDone, uint64(i))
		case opLoad:
			if memOps == 0 || c.inLQ >= c.cfg.LQ {
				continue
			}
			pa := c.translate(op.addr)
			cb := c.getCb(i, true)
			if !c.l1.Access(mem.Load, pa, cb.fn) {
				c.freeCbs = append(c.freeCbs, cb)
				continue // L1 MSHR full; retry next cycle
			}
			memOps--
			c.inLQ++
			op.state = opIssued
			c.cLoads.Inc()
		case opStore:
			if memOps == 0 || c.inSQ >= c.cfg.SQ {
				continue
			}
			pa := c.translate(op.addr)
			cb := c.getCb(i, false)
			if !c.l1.Access(mem.Store, pa, cb.fn) {
				c.freeCbs = append(c.freeCbs, cb)
				continue
			}
			memOps--
			c.inSQ++
			op.state = opIssued
			c.cStores.Inc()
		}
	}

	// Commit in order.
	for n := 0; n < c.cfg.Width && c.head < c.dispatch; n++ {
		if c.ops[c.head].state != opDone {
			break
		}
		c.head++
		c.inROB--
		c.eng.Progress() // an instruction committing is forward progress
		c.cCommitted.Inc()
	}

	if c.head == len(c.ops) {
		done := c.onDone
		c.inv, c.translate, c.onDone = nil, nil, nil
		if done != nil {
			done(now)
		}
	}
}
