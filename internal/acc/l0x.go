package acc

import (
	"fmt"
	"sort"
	"strings"

	"fusion/internal/cache"
	"fusion/internal/energy"
	"fusion/internal/flat"
	"fusion/internal/interconnect"
	"fusion/internal/mem"
	"fusion/internal/obs"
	"fusion/internal/sim"
	"fusion/internal/stats"
)

// L0XConfig sizes one private accelerator cache.
type L0XConfig struct {
	Cache      cache.Params // Table 2: 4 KB or 8 KB
	MSHRs      int
	HitLatency uint64
	// LeaseTime is the epoch length requested per miss — the per-function
	// LT column of Tables 1/3, set from the expected invocation latency.
	LeaseTime uint64
	// WriteThrough disables write caching: every store also pushes its line
	// to the L1X immediately (the Table 4 comparison).
	WriteThrough bool
	// AccessPJ is the per-access energy; the ACC timestamp-check overhead
	// must already be folded in by the caller.
	AccessPJ float64
	// StatPrefix distinguishes multiple tiles' counters ("" keeps the
	// canonical "l0x.N." names).
	StatPrefix string
}

// l0txn is one outstanding miss. Completed txns recycle through a free list
// (waiters capacity included).
type l0txn struct {
	addr    uint64
	write   bool
	waiters []l0waiter
}

type l0waiter struct {
	kind mem.AccessKind
	va   mem.VAddr // original (offset-carrying) address, for observations
	done func(now uint64)
}

// L0X HandleEvent opcodes.
const (
	opL0XSelfDowngrade = 0 // close the write epoch on line arg if still open
)

// L0X is a private, write-caching, lease-based accelerator cache. It talks
// only to its tile's shared L1X (and, under FUSION-Dx, directly to sibling
// L0Xs over the forwarding link).
type L0X struct {
	id   AXCID
	pid  mem.PID
	name string
	cfg  L0XConfig
	arr  *cache.Array
	mshr *cache.MSHR

	eng   *sim.Engine
	toL1X *interconnect.Link
	// fwdTo is indexed by the consumer AXCID (IDs are small and dense
	// within a tile); nil means no forwarding link to that sibling.
	fwdTo []*interconnect.Link
	// txns is keyed by MSHR slot: the miss record for the line in slot s
	// of the MSHR file. Slot resolution is the MSHR's bitmap walk, so the
	// per-access "is a miss outstanding" question never touches a map.
	txns     []*l0txn
	freeTxns []*l0txn

	// fwdTable maps line addresses to the consumer accelerator that should
	// receive the dirty line directly (FUSION-Dx, Section 3.2). It is
	// populated by trace post-processing before the producer runs and
	// cleared (without reallocating) at every task boundary.
	fwdTable *flat.Map[AXCID]

	pool TileMsgPool

	meter *energy.Meter
	obsv  obs.Observer
	mut   *Mutations

	cAccesses     *stats.Counter
	cWriteThrough *stats.Counter
	cSelfInval    *stats.Counter
	cMSHRFull     *stats.Counter
	cMisses       *stats.Counter
	cHits         *stats.Counter
	cDeadGrants   *stats.Counter
	cSelfDown     *stats.Counter
	cFwdOut       *stats.Counter
	cWBs          *stats.Counter
	cDeadFwds     *stats.Counter
	cFwdIn        *stats.Counter
}

// SetObserver attaches an observer to the L0X's accesses and protocol
// transitions (nil disables observation; the hot path then pays only a nil
// check).
func (c *L0X) SetObserver(o obs.Observer) { c.obsv = o }

// SetMutations arms test-only protocol mutations (nil disables them).
func (c *L0X) SetMutations(m *Mutations) { c.mut = m }

// observe stamps o with the cycle and this cache's name and reports it to
// the attached observer. Callers check c.obsv for nil first.
func (c *L0X) observe(o obs.Observation) {
	o.Cycle, o.Agent = c.eng.Now(), c.name
	c.obsv.Record(o)
}

// observeLine reports an agent-visible access to va served by line l: a
// load observes l's version under its read or write lease, a store
// produces it under the write epoch.
func (c *L0X) observeLine(k obs.Kind, va mem.VAddr, l *cache.Line) {
	lease := l.WTime
	if k == obs.Load {
		lease = maxU64(l.LTime, l.WTime)
	}
	c.observe(obs.Observation{Kind: k, Addr: uint64(va), Ver: l.Ver, Lease: lease})
}

// NewL0X builds a private cache for accelerator id.
func NewL0X(eng *sim.Engine, id AXCID, pid mem.PID, cfg L0XConfig,
	meter *energy.Meter, st *stats.Set) *L0X {
	name := fmt.Sprintf("%sl0x.%d", cfg.StatPrefix, id)
	return &L0X{
		id:            id,
		pid:           pid,
		name:          name,
		cfg:           cfg,
		arr:           cache.NewArray(cfg.Cache),
		mshr:          cache.NewMSHR(cfg.MSHRs),
		eng:           eng,
		txns:          make([]*l0txn, cfg.MSHRs),
		fwdTable:      flat.New[AXCID](64),
		meter:         meter,
		cAccesses:     st.Counter(name + ".accesses"),
		cWriteThrough: st.Counter(name + ".write_through"),
		cSelfInval:    st.Counter(name + ".self_invalidations"),
		cMSHRFull:     st.Counter(name + ".mshr_full"),
		cMisses:       st.Counter(name + ".misses"),
		cHits:         st.Counter(name + ".hits"),
		cDeadGrants:   st.Counter(name + ".dead_grants"),
		cSelfDown:     st.Counter(name + ".self_downgrades"),
		cFwdOut:       st.Counter(name + ".fwd_out"),
		cWBs:          st.Counter(name + ".writebacks"),
		cDeadFwds:     st.Counter(name + ".dead_forwards"),
		cFwdIn:        st.Counter(name + ".fwd_in"),
	}
}

// ConnectL1X attaches the uplink to the shared L1X.
func (c *L0X) ConnectL1X(l *interconnect.Link) { c.toL1X = l }

// ConnectPeer attaches the direct forwarding link to a sibling L0X (Dx).
func (c *L0X) ConnectPeer(id AXCID, l *interconnect.Link) {
	for int(id) >= len(c.fwdTo) {
		c.fwdTo = append(c.fwdTo, nil)
	}
	c.fwdTo[id] = l
}

// SetLeaseTime adjusts the lease requested per miss (functions differ, LT
// column of Table 3).
func (c *L0X) SetLeaseTime(lt uint64) { c.cfg.LeaseTime = lt }

// MarkForward registers that the line holding va should be pushed to
// consumer when this producer is done with it.
func (c *L0X) MarkForward(va mem.VAddr, consumer AXCID) {
	c.fwdTable.Put(uint64(va.LineAddr()), consumer)
}

// ClearForwards empties the forwarding table (between invocations). It
// zeroes the table's occupancy bitmap in place: task boundaries are
// frequent, and reallocating here used to show up in allocation profiles.
func (c *L0X) ClearForwards() { c.fwdTable.Clear() }

// ID returns the accelerator ID this cache serves.
func (c *L0X) ID() AXCID { return c.id }

func (c *L0X) access() {
	if c.meter != nil {
		c.meter.Add(energy.CatL0X, c.cfg.AccessPJ)
	}
	c.cAccesses.Inc()
}

// sendWB pushes a writeback (or epoch release) up to the L1X.
func (c *L0X) sendWB(a uint64, ver, lease uint64, through bool) {
	wb := c.pool.Get()
	wb.Type, wb.Addr, wb.PID, wb.Src = MsgWB, mem.VAddr(a), c.pid, c.id
	wb.Ver, wb.Lease, wb.Through = ver, lease, through
	c.toL1X.Send(wb)
}

// HandleEvent dispatches the L0X's closure-free events.
func (c *L0X) HandleEvent(now uint64, op uint8, arg uint64) {
	switch op {
	case opL0XSelfDowngrade:
		c.selfDowngrade(arg, now)
	}
}

// Access performs one accelerator load or store on a virtual address. done
// fires at retirement. Returns false when the MSHR is full (the accelerator
// stalls and retries, which is how its MLP bounds memory pressure).
func (c *L0X) Access(kind mem.AccessKind, va mem.VAddr, done func(now uint64)) bool {
	a := uint64(va.LineAddr())
	now := c.eng.Now()
	c.access()

	if l := c.arr.LookupPID(a, c.pid); l != nil {
		readable := l.LTime > now || l.WTime > now
		writable := l.WTime > now
		if c.mut != nil && c.mut.SkipSelfInvalidate && kind == mem.Load {
			readable = true // mutant: keep serving a lapsed lease
		}
		switch {
		case kind == mem.Load && readable:
			if c.obsv != nil {
				c.observeLine(obs.Load, va, l)
			}
			c.hit(done)
			return true
		case kind == mem.Store && writable:
			if c.mut == nil || !c.mut.LostStore {
				l.Ver++
			}
			if c.obsv != nil {
				c.observeLine(obs.Store, va, l)
			}
			if c.cfg.WriteThrough {
				// Push the store straight through; the line stays clean.
				c.sendWB(a, l.Ver, l.WTime, true)
				c.cWriteThrough.Inc()
			} else {
				l.Dirty = true
			}
			c.hit(done)
			return true
		default:
			// Lease expired (self-invalidated) or insufficient: miss path.
			if l.LTime <= now && l.WTime <= now {
				c.cSelfInval.Inc()
				if c.obsv != nil {
					c.observe(obs.Observation{Kind: obs.SelfInvalidate, Addr: a})
				}
				c.dropLine(l) // expired; writeback if a dirty epoch lapsed
			}
		}
	}

	if slot := c.mshr.Slot(a); slot >= 0 {
		t := c.txns[slot]
		t.waiters = append(t.waiters, l0waiter{kind, va, done})
		return true
	}
	if c.mshr.Full() {
		c.cMSHRFull.Inc()
		return false
	}
	t := c.newTxn()
	t.addr, t.write = a, kind == mem.Store
	t.waiters = append(t.waiters, l0waiter{kind, va, done})
	c.txns[c.mshr.Allocate(a)] = t
	c.cMisses.Inc()
	mt := MsgGetL
	if t.write {
		mt = MsgGetW
	}
	if c.obsv != nil {
		c.observe(obs.Observation{Kind: obs.L0XMiss, Addr: a, Write: t.write})
	}
	req := c.pool.Get()
	req.Type, req.Addr, req.PID, req.Src = mt, mem.VAddr(a), c.pid, c.id
	req.Lease = c.cfg.LeaseTime // duration; the L1X anchors it at grant time
	c.toL1X.Send(req)
	return true
}

// newTxn returns a zeroed miss record, reusing a recycled one if possible.
func (c *L0X) newTxn() *l0txn {
	if n := len(c.freeTxns); n > 0 {
		t := c.freeTxns[n-1]
		c.freeTxns[n-1] = nil
		c.freeTxns = c.freeTxns[:n-1]
		w := t.waiters[:0]
		*t = l0txn{waiters: w}
		return t
	}
	return &l0txn{}
}

func (c *L0X) freeTxn(t *l0txn) {
	for i := range t.waiters {
		t.waiters[i] = l0waiter{}
	}
	c.freeTxns = append(c.freeTxns, t)
}

func (c *L0X) hit(done func(uint64)) {
	c.cHits.Inc()
	c.eng.Schedule(c.cfg.HitLatency, done)
}

// Handle receives a message from the L1X or a sibling L0X.
func (c *L0X) Handle(msg interconnect.Message) {
	m, ok := msg.(*TileMsg)
	if !ok {
		sim.Failf(c.name, c.eng.Now(), c.DumpState(), "foreign message %v", msg)
	}
	switch m.Type {
	case MsgLease:
		c.fill(m)
	case MsgFwdData:
		c.receiveForward(m)
	default:
		sim.Failf(c.name, c.eng.Now(), c.DumpState(), "unexpected %s", m)
	}
}

// fill installs a granted lease and replays waiters, releasing m at every
// terminal path (the all-ways-busy retry retains it). A grant with no
// transaction is possible under FUSION-Dx — a forward raced ahead of the
// L1X's (stalled) grant and already satisfied the miss — and just refreshes
// the lease.
func (c *L0X) fill(m *TileMsg) {
	a := uint64(m.Addr.LineAddr())
	slot := c.mshr.Slot(a)
	var t *l0txn
	if slot >= 0 {
		t = c.txns[slot]
	}
	if t == nil {
		// A grant with no transaction left for it. On FUSION-Dx a forward
		// can satisfy a GetL still stalled at the L1X; the L1X replays it
		// once the epoch closes, and that stale read grant consumes this
		// L0X's newer GetW transaction, orphaning the GetW's write grant.
		// A write grant holds the L1X epoch lock, so release it as the
		// dead-grant path does, or the line's next GetW waits forever.
		if m.Write && (c.mut == nil || !c.mut.DropOrphanEpoch) {
			c.sendWB(a, m.Ver, m.Lease, false)
		}
		if l := c.arr.LookupPID(a, c.pid); l != nil && m.Lease > l.LTime {
			l.LTime = m.Lease
		}
		c.pool.Put(m)
		return
	}
	if m.NoAlloc {
		// HYDRA bypass: the L1X declined to allocate and sent the data with
		// no lease at all. Serve the waiting loads one-shot — the payload is
		// the globally ordered version, observed strictly — and install
		// nothing. Store waiters (merged behind the read miss) re-request a
		// real write epoch, which forces allocation.
		c.txns[slot] = nil
		c.mshr.Free(a)
		c.eng.Progress() // miss resolved: heartbeat
		for _, w := range t.waiters {
			if w.kind == mem.Store {
				w := w
				c.eng.Schedule(1, func(uint64) { c.retryAccess(w.kind, w.va, w.done) })
				continue
			}
			if c.obsv != nil {
				c.observe(obs.Observation{Kind: obs.Load, Addr: uint64(w.va), Ver: m.Ver})
			}
			c.eng.Schedule(c.cfg.HitLatency, w.done)
		}
		c.freeTxn(t)
		c.pool.Put(m)
		return
	}
	if m.Lease <= c.eng.Now() {
		// The grant died in transit (delivery delay outlived the lease).
		// Installing it would extend the lease past the L1X's GTIME promise,
		// so release it and re-request instead. A write grant holds the L1X
		// epoch lock and must be returned or stalled requesters would wait
		// forever; the release is a plain (clean) writeback.
		if m.Write {
			c.sendWB(a, m.Ver, m.Lease, false)
		}
		// No Progress beat here: this is a retry loop, and a persistent
		// dead-grant spin must still trip the watchdog.
		c.txns[slot] = nil
		c.mshr.Free(a)
		c.cDeadGrants.Inc()
		for _, w := range t.waiters {
			w := w
			c.eng.Schedule(1, func(uint64) { c.retryAccess(w.kind, w.va, w.done) })
		}
		c.freeTxn(t)
		c.pool.Put(m)
		return
	}
	l := c.installLine(a, m.Lease, m.Write, m.Ver)
	if l == nil {
		// All ways busy; retry shortly without dropping the grant.
		c.eng.Schedule(1, func(uint64) { c.fill(m) })
		return
	}
	c.txns[slot] = nil
	c.mshr.Free(a)
	c.eng.Progress() // miss resolved: heartbeat

	for _, w := range t.waiters {
		if w.kind == mem.Store {
			if m.Write {
				if c.mut == nil || !c.mut.LostStore {
					l.Ver++
				}
				if c.obsv != nil {
					c.observeLine(obs.Store, w.va, l)
				}
				if c.cfg.WriteThrough {
					c.sendWB(a, l.Ver, l.WTime, true)
					c.cWriteThrough.Inc()
				} else {
					l.Dirty = true
				}
				c.eng.Schedule(c.cfg.HitLatency, w.done)
			} else {
				// A store merged behind a read-lease miss: upgrade now.
				w := w
				c.eng.Schedule(1, func(uint64) { c.retryAccess(w.kind, w.va, w.done) })
			}
			continue
		}
		if c.obsv != nil {
			c.observeLine(obs.Load, w.va, l)
		}
		c.eng.Schedule(c.cfg.HitLatency, w.done)
	}
	c.freeTxn(t)
	c.pool.Put(m)
}

func (c *L0X) retryAccess(kind mem.AccessKind, va mem.VAddr, done func(uint64)) {
	if !c.Access(kind, va, done) {
		c.eng.Schedule(2, func(uint64) { c.retryAccess(kind, va, done) })
	}
}

// installLine places a leased line in the array, evicting if necessary.
// Returns nil when every way in the set is pinned by pending transactions.
func (c *L0X) installLine(a uint64, lease uint64, write bool, ver uint64) *cache.Line {
	l := c.arr.LookupPID(a, c.pid)
	if l == nil {
		v := c.pickVictim(a)
		if v == nil {
			return nil
		}
		c.dropLine(v)
		c.arr.Fill(v, a, c.pid)
		l = v
	}
	c.access()
	if lease <= c.eng.Now() {
		lease = c.eng.Now() + 1 // grant arrived after its expiry; degenerate
	}
	l.Ver = ver
	l.LTime = lease
	if write {
		l.WTime = lease
		// Self-downgrade: the write epoch must end with a writeback by its
		// expiry (the paper implements this with per-set writeback
		// timestamps; an event is the simulation equivalent). The handler
		// checks WTime against the fire cycle, so a re-leased line is left
		// alone.
		c.eng.ScheduleCallAt(lease, c, opL0XSelfDowngrade, a)
	}
	return l
}

// pickVictim chooses a fillable way, skipping lines tied to open txns.
func (c *L0X) pickVictim(a uint64) *cache.Line {
	for i := 0; i < c.arr.Params().Ways; i++ {
		v := c.arr.Victim(a)
		if !v.Valid {
			return v
		}
		if c.mshr.Slot(v.Addr) < 0 {
			return v
		}
		c.arr.Touch(v)
	}
	return nil
}

// dropLine evicts a line: dirty data is forwarded (Dx) or written back. A
// clean line still holding a write epoch (write-through mode, or an epoch
// granted but not yet written) must release the L1X lock on the way out or
// stalled requesters would wait forever.
func (c *L0X) dropLine(l *cache.Line) {
	if !l.Valid {
		return
	}
	if l.Dirty {
		c.flushLine(l)
	} else if l.WTime > c.eng.Now() {
		c.sendWB(l.Addr, l.Ver, l.WTime, false)
	}
	*l = cache.Line{}
}

// flushLine emits the dirty payload of l: a direct forward when the line is
// marked for a consumer and a forwarding link exists, otherwise a writeback
// to the shared L1X. The line is marked clean.
//
// A line that itself arrived by forwarding (State==Shared marks the import)
// always writes back: re-forwarding would chain the open write epoch across
// hops and stall any L1X requester for the full lease (the L1X cannot close
// the epoch until a writeback finally lands).
func (c *L0X) flushLine(l *cache.Line) {
	if consumer, ok := c.fwdTable.Get(l.Addr); ok && l.State != cache.Shared {
		if link := c.peerLink(consumer); link != nil {
			if c.obsv != nil {
				c.observe(obs.Observation{Kind: obs.DxForward, Addr: l.Addr,
					Peer: int32(consumer), Arg: maxU64(l.WTime, l.LTime)})
			}
			fwd := c.pool.Get()
			fwd.Type, fwd.Addr, fwd.PID, fwd.Src = MsgFwdData, mem.VAddr(l.Addr), c.pid, c.id
			fwd.Lease, fwd.Dirty, fwd.Ver = maxU64(l.WTime, l.LTime), true, l.Ver
			if c.mut != nil && c.mut.StaleForward && fwd.Ver > 0 {
				fwd.Ver-- // mutant: the forward drops the producer's last store
			}
			link.Send(fwd)
			c.cFwdOut.Inc()
			l.Dirty = false
			return
		}
	}
	if c.obsv != nil {
		c.observe(obs.Observation{Kind: obs.Writeback, Addr: l.Addr})
	}
	c.sendWB(l.Addr, l.Ver, l.WTime, false)
	c.cWBs.Inc()
	l.Dirty = false
}

// peerLink returns the Dx forwarding link to sibling id, or nil.
func (c *L0X) peerLink(id AXCID) *interconnect.Link {
	if int(id) < len(c.fwdTo) {
		return c.fwdTo[id]
	}
	return nil
}

// selfDowngrade fires when a write epoch expires: the line (if still
// present and dirty) writes back and self-invalidates.
func (c *L0X) selfDowngrade(a uint64, expiry uint64) {
	l := c.arr.Peek(a)
	if l == nil || !l.Valid || l.WTime != expiry {
		return // already drained, evicted, or re-leased
	}
	c.cSelfDown.Inc()
	if c.obsv != nil {
		c.observe(obs.Observation{Kind: obs.SelfDowngrade, Addr: a})
	}
	if l.Dirty {
		c.flushLine(l)
	} else if c.cfg.WriteThrough {
		// Written-through epochs still need an explicit release so the L1X
		// can unlock the line; the final WB doubles as the release.
		c.sendWB(a, l.Ver, l.WTime, false)
	}
	*l = cache.Line{}
}

// receiveForward installs a line pushed by a producer L0X (FUSION-Dx). The
// data arrives dirty, with the producer's remaining lease; this consumer
// now owes the eventual writeback to the L1X. m is released at every
// terminal path (the all-ways-busy retry retains it).
func (c *L0X) receiveForward(m *TileMsg) {
	a := uint64(m.Addr.LineAddr())
	if m.Lease <= c.eng.Now() {
		// The forward outlived its lease in transit. The dirty payload is
		// owed to the L1X; pass it on as the closing writeback instead of
		// installing an already-expired line. Any outstanding miss here is
		// stalled at the L1X behind the epoch lock and resolves once this
		// writeback closes it.
		c.sendWB(a, m.Ver, m.Lease, false)
		c.cDeadFwds.Inc()
		c.pool.Put(m)
		return
	}
	l := c.installLine(a, m.Lease, true, m.Ver)
	if l == nil {
		c.eng.Schedule(1, func(uint64) { c.receiveForward(m) })
		return
	}
	l.Dirty = true
	l.State = cache.Shared // marks an imported line: never re-forward it
	c.cFwdIn.Inc()
	// A miss may already be outstanding for this line (the consumer raced
	// ahead of the push). The forward satisfies it; the L1X's eventual
	// grant, if any, arrives with no transaction and is ignored by fill.
	if slot := c.mshr.Slot(a); slot >= 0 {
		t := c.txns[slot]
		c.txns[slot] = nil
		c.mshr.Free(a)
		c.eng.Progress()
		for _, w := range t.waiters {
			if w.kind == mem.Store {
				if c.mut == nil || !c.mut.LostStore {
					l.Ver++
				}
				if c.obsv != nil {
					c.observeLine(obs.Store, w.va, l)
				}
			} else if c.obsv != nil {
				c.observeLine(obs.Load, w.va, l)
			}
			c.eng.Schedule(c.cfg.HitLatency, w.done)
		}
		c.freeTxn(t)
	}
	c.pool.Put(m)
}

// Drain writes back (or forwards) every dirty line and releases epochs —
// the accelerator calls this when an invocation completes, which is the
// "self-eviction" moment of Figures 3 and 5.
func (c *L0X) Drain() {
	c.arr.ForEach(func(l *cache.Line) {
		if !l.Valid {
			return
		}
		if l.Dirty {
			c.flushLine(l)
			*l = cache.Line{}
		} else if l.WTime > c.eng.Now() {
			// Unwritten or written-through epoch: release the L1X lock.
			c.sendWB(l.Addr, l.Ver, l.WTime, false)
			*l = cache.Line{}
		}
	})
}

// DumpState summarizes in-flight work for watchdog/failure diagnostics.
// Empty when the cache is idle.
func (c *L0X) DumpState() string {
	if c.mshr.Len() == 0 {
		return ""
	}
	addrs := c.mshr.Outstanding()
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d open txns, %d/%d MSHRs\n",
		c.name, c.mshr.Len(), c.mshr.Len(), c.cfg.MSHRs)
	for _, a := range addrs {
		t := c.txns[c.mshr.Slot(a)]
		kind := "GetL"
		if t.write {
			kind = "GetW"
		}
		fmt.Fprintf(&b, "  %#x %s waiters=%d\n", a, kind, len(t.waiters))
	}
	return b.String()
}

// InvalidateAll clears the cache without writebacks (tests only).
func (c *L0X) InvalidateAll() { c.arr.InvalidateAll() }

// Outstanding reports open transactions (drain checks).
func (c *L0X) Outstanding() int { return c.mshr.Len() }

// Peek exposes a line for tests.
func (c *L0X) Peek(va mem.VAddr) *cache.Line {
	return c.arr.Peek(uint64(va.LineAddr()))
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
