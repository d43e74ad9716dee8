package acc

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"fusion/internal/cache"
	"fusion/internal/energy"
	"fusion/internal/flat"
	"fusion/internal/interconnect"
	"fusion/internal/mem"
	"fusion/internal/mesi"
	"fusion/internal/obs"
	"fusion/internal/sim"
	"fusion/internal/stats"
)

// L1XConfig sizes the shared tile cache.
type L1XConfig struct {
	Cache     cache.Params // Table 2: 64 KB (or 256 KB), 8-way
	Banks     int          // Table 2: 16 banks
	MSHRs     int
	AccessLat uint64 // bank access latency
	AccessPJ  float64
	// LeaseSlack pads retries when waiting for epochs to lapse.
	LeaseSlack uint64
	// StatPrefix distinguishes multiple tiles' counters ("" keeps the
	// canonical "l1x." names).
	StatPrefix string
}

// l1txn is one outstanding host-side (MESI) fetch. Completed txns recycle
// through a free list (waiters capacity included).
type l1txn struct {
	va         uint64 // virtual line address
	pa         mem.PAddr
	pid        mem.PID
	waiters    []*TileMsg // lease requests to replay once data arrives
	arrived    bool
	ver        uint64
	acksNeeded int // -1 until the data response reports the count
	acksGot    int
}

const (
	holderAbsent   = -3 // no lease interaction since the line was installed
	holderNone     = -2
	holderMultiple = -1
)

// L1X HandleEvent opcodes.
const (
	opL1XProcess  = 0 // process the TileMsg parked in slot arg
	opL1XSendGetM = 1 // send GetM for the physical line address in arg
)

// L1X is the shared accelerator-tile cache: the ACC ordering point, the
// tile's single MESI agent (MEI states), and the home of the AX-TLB and
// AX-RMAP. It is indexed by PID-tagged virtual addresses; translation
// happens only on its miss path (Section 3.2).
type L1X struct {
	name string
	cfg  L1XConfig
	arr  *cache.Array
	mshr *cache.MSHR

	eng    *sim.Engine
	fabric *mesi.Fabric
	agent  mesi.AgentID
	tlb    Translator
	rmap   ReverseMap

	// toL0X is indexed by AXCID (dense within a tile).
	toL0X []*interconnect.Link

	// txns is keyed by MSHR slot (the file is keyed by virtual line
	// address); a pending fetch's physical address lives on the txn, so
	// the PA->VA question is a walk of the MSHR occupancy bitmap.
	txns     []*l1txn
	freeTxns []*l1txn // recycled fetch records
	// waiting and holder are per-(set, way) line-slot arrays parallel to
	// the tag array (cache.Array.SlotOf): the stall list and sole
	// read-lease holder belong to the line currently in the slot. A line
	// can only leave the array with no open write epoch, hence with an
	// empty stall list (evictLine checks), so slot reuse is safe.
	waiting [][]*TileMsg
	holder  []int
	evict   []evictEntry // awaiting PutAck; can serve host Fwds

	tilePool TileMsgPool
	mesiPool mesi.MsgPool
	// parked holds TileMsgs between scheduling and processing; the
	// closure-free event carries the slot index.
	parked    []*TileMsg
	freeSlots []uint32

	meter *energy.Meter
	obsv  obs.Observer
	st    *stats.Set
	mut   *Mutations

	// HYDRA cacheability filter (nil/zero when disarmed — see
	// EnableBypassFilter). touches counts lease requests per virtual line;
	// a fetch whose demand stays below bypassThreshold, or that completes
	// past the task deadline, is served to its waiting loads without
	// allocating.
	filterOn        bool
	bypassThreshold int
	bypassPJ        float64
	deadline        uint64
	touches         *flat.Map[uint32]

	cAccesses   *stats.Counter
	cStallWLock *stats.Counter
	cStallGTime *stats.Counter
	cGrantsW    *stats.Counter
	cGrantsR    *stats.Counter
	cWBOrphan   *stats.Counter
	cWBIn       *stats.Counter
	cMSHRFull   *stats.Counter
	cMisses     *stats.Counter
	cSynEvict   *stats.Counter
	cEvictions  *stats.Counter
	cHostFwds   *stats.Counter
	cFwdStalled *stats.Counter
	// Created by EnableBypassFilter so non-HYDRA systems' stat dumps are
	// undisturbed.
	cBypassAlloc    *stats.Counter
	cBypassDeadline *stats.Counter
}

// SetMutations arms test-only protocol mutations at the L1X (nil disarms).
// Only IgnoreDeadline is interpreted here; the L0X mutations ride on the
// same struct.
func (x *L1X) SetMutations(m *Mutations) { x.mut = m }

// EnableBypassFilter arms the HYDRA cacheability filter: a fetch serving
// only loads is examined before allocation, and bypassed — data handed to
// the waiting L0Xs one-shot, ownership relinquished immediately — when the
// line's request count is below threshold (low expected reuse) or the
// fill completes past the task deadline set by SetDeadline. Every
// examination is metered at checkPJ under energy.CatPolicy.
func (x *L1X) EnableBypassFilter(threshold int, checkPJ float64) {
	x.filterOn = true
	x.bypassThreshold = threshold
	x.bypassPJ = checkPJ
	x.touches = flat.New[uint32](4096)
	x.cBypassAlloc = x.st.Counter(x.name + ".bypass_alloc")
	x.cBypassDeadline = x.st.Counter(x.name + ".bypass_deadline")
}

// SetDeadline sets the absolute cycle after which the filter treats every
// fill as deadline-critical (zero disables the deadline term).
func (x *L1X) SetDeadline(d uint64) { x.deadline = d }

// SetObserver attaches an observer to the L1X's grants and protocol
// transitions (nil disables observation). Grants are recorded as
// diagnostics: the value checker keys on L0X and host-side observations,
// but a grant pinpoints where a stale version entered the tile.
func (x *L1X) SetObserver(o obs.Observer) { x.obsv = o }

// observe stamps o with the cycle and this cache's name and reports it to
// the attached observer. Callers check x.obsv for nil first.
func (x *L1X) observe(o obs.Observation) {
	o.Cycle, o.Agent = x.eng.Now(), x.name
	x.obsv.Record(o)
}

type evictBuf struct {
	ver   uint64
	dirty bool
}

// evictEntry is one writeback awaiting the directory's PutAck. The handful
// in flight live in a linear list: shorter than a map bucket walk, and
// deletion is a swap with the tail.
type evictEntry struct {
	pa mem.PAddr
	evictBuf
}

// evictFind returns the index of pa's eviction buffer, or -1.
func (x *L1X) evictFind(pa mem.PAddr) int {
	for i := range x.evict {
		if x.evict[i].pa == pa {
			return i
		}
	}
	return -1
}

// evictPut records (or refreshes) the eviction buffer for pa.
func (x *L1X) evictPut(pa mem.PAddr, b evictBuf) {
	if i := x.evictFind(pa); i >= 0 {
		x.evict[i].evictBuf = b
		return
	}
	x.evict = append(x.evict, evictEntry{pa: pa, evictBuf: b})
}

// evictRemove drops entry i by swapping the tail in.
func (x *L1X) evictRemove(i int) {
	last := len(x.evict) - 1
	x.evict[i] = x.evict[last]
	x.evict = x.evict[:last]
}

// Translator is the AX-TLB interface (satisfied by *vm.TLB).
type Translator interface {
	Translate(pid mem.PID, va mem.VAddr) (mem.PAddr, uint64)
}

// ReverseMap is the AX-RMAP interface (satisfied by *vm.RMAP).
type ReverseMap interface {
	Insert(pa mem.PAddr, ptr ReversePointer) (prev ReversePointer, dup bool)
	Lookup(pa mem.PAddr) (ReversePointer, bool)
	Remove(pa mem.PAddr)
}

// ReversePointer locates an L1X line for a forwarded physical request.
type ReversePointer struct {
	VAddr mem.VAddr
	PID   mem.PID
}

// NewL1X builds the shared tile cache and registers it as agent on the
// fabric.
func NewL1X(eng *sim.Engine, fabric *mesi.Fabric, agent mesi.AgentID,
	cfg L1XConfig, tlb Translator, rmap ReverseMap,
	meter *energy.Meter, st *stats.Set) *L1X {
	name := cfg.StatPrefix + "l1x"
	arr := cache.NewArray(cfg.Cache)
	holder := make([]int, arr.NumLines())
	for i := range holder {
		holder[i] = holderAbsent
	}
	x := &L1X{
		name:        name,
		cfg:         cfg,
		arr:         arr,
		mshr:        cache.NewMSHR(cfg.MSHRs),
		eng:         eng,
		fabric:      fabric,
		agent:       agent,
		tlb:         tlb,
		rmap:        rmap,
		txns:        make([]*l1txn, cfg.MSHRs),
		waiting:     make([][]*TileMsg, arr.NumLines()),
		holder:      holder,
		meter:       meter,
		st:          st,
		cAccesses:   st.Counter(name + ".accesses"),
		cStallWLock: st.Counter(name + ".stall_wlock"),
		cStallGTime: st.Counter(name + ".stall_gtime"),
		cGrantsW:    st.Counter(name + ".grants_write"),
		cGrantsR:    st.Counter(name + ".grants_read"),
		cWBOrphan:   st.Counter(name + ".wb_orphan"),
		cWBIn:       st.Counter(name + ".writebacks_in"),
		cMSHRFull:   st.Counter(name + ".mshr_full"),
		cMisses:     st.Counter(name + ".misses"),
		cSynEvict:   st.Counter(name + ".synonym_evictions"),
		cEvictions:  st.Counter(name + ".evictions"),
		cHostFwds:   st.Counter(name + ".host_fwds"),
		cFwdStalled: st.Counter(name + ".fwd_stalled"),
	}
	if cfg.LeaseSlack == 0 {
		x.cfg.LeaseSlack = 1
	}
	fabric.Register(agent, x.HandleMESI)
	return x
}

// ConnectL0X attaches the downlink to one accelerator's private cache.
func (x *L1X) ConnectL0X(id AXCID, l *interconnect.Link) {
	for int(id) >= len(x.toL0X) {
		x.toL0X = append(x.toL0X, nil)
	}
	x.toL0X[id] = l
}

// Agent returns the tile's MESI agent ID.
func (x *L1X) Agent() mesi.AgentID { return x.agent }

func (x *L1X) access() {
	if x.meter != nil {
		x.meter.Add(energy.CatL1X, x.cfg.AccessPJ)
	}
	x.cAccesses.Inc()
}

// park stores m and returns its slot for a closure-free process event.
func (x *L1X) park(m *TileMsg) uint64 {
	if n := len(x.freeSlots); n > 0 {
		s := x.freeSlots[n-1]
		x.freeSlots = x.freeSlots[:n-1]
		x.parked[s] = m
		return uint64(s)
	}
	x.parked = append(x.parked, m)
	return uint64(len(x.parked) - 1)
}

func (x *L1X) scheduleProcess(delay uint64, m *TileMsg) {
	x.eng.ScheduleCall(delay, x, opL1XProcess, x.park(m))
}

func (x *L1X) scheduleProcessAt(at uint64, m *TileMsg) {
	x.eng.ScheduleCallAt(at, x, opL1XProcess, x.park(m))
}

// HandleEvent dispatches the L1X's closure-free events.
func (x *L1X) HandleEvent(now uint64, op uint8, arg uint64) {
	switch op {
	case opL1XProcess:
		m := x.parked[arg]
		x.parked[arg] = nil
		x.freeSlots = append(x.freeSlots, uint32(arg))
		x.process(m)
	case opL1XSendGetM:
		g := x.mesiPool.Get()
		g.Type, g.Addr, g.Src, g.Dst = mesi.MsgGetM, mem.PAddr(arg), x.agent, mesi.DirID
		x.fabric.Send(g)
	}
}

// HandleTile receives a message from an L0X, paying the bank latency.
func (x *L1X) HandleTile(msg interconnect.Message) {
	m, ok := msg.(*TileMsg)
	if !ok {
		sim.Failf(x.name, x.eng.Now(), x.DumpState(), "foreign message %v", msg)
	}
	x.scheduleProcess(x.cfg.AccessLat, m)
}

func (x *L1X) process(m *TileMsg) {
	switch m.Type {
	case MsgGetL, MsgGetW:
		x.lease(m)
	case MsgWB:
		x.writeback(m)
		x.tilePool.Put(m)
	default:
		sim.Failf(x.name, x.eng.Now(), x.DumpState(), "unexpected tile %s", m)
	}
}

// lease serves a read-lease or write-epoch request. Granted requests release
// m; stalled or missing ones retain it for replay.
func (x *L1X) lease(m *TileMsg) {
	a := uint64(m.Addr.LineAddr())
	x.access()

	if x.filterOn {
		// Demand tracking for the cacheability filter. Replayed waiters
		// recount, but only after the allocate/bypass decision for their
		// fetch was made, so the inflation never flips a decision.
		if p := x.touches.Ptr(a); p != nil {
			*p++
		} else {
			x.touches.Put(a, 1)
		}
	}

	l := x.arr.LookupPID(a, m.PID)
	if l == nil {
		x.missFetch(a, m)
		return
	}
	now := x.eng.Now()
	slot := x.arr.SlotOf(a, l)
	if l.WLock {
		// An outstanding write epoch: everyone stalls at the L1X until the
		// writeback lands (Section 3.2, Figure 4).
		x.waiting[slot] = append(x.waiting[slot], m)
		x.cStallWLock.Inc()
		if x.obsv != nil {
			x.observe(obs.Observation{Kind: obs.WLockStall, Addr: a,
				Peer: int32(m.Src), Write: m.Type == MsgGetW})
		}
		return
	}
	// Requests carry a lease duration; anchor it now so a request that
	// stalled behind an epoch still gets a full-length lease.
	expiry := now + m.Lease
	if m.Type == MsgGetW {
		h := x.holder[slot]
		if h == holderAbsent {
			h = 0 // the address-keyed table read absent entries as zero
		}
		soleOK := h == int(m.Src) || l.GTime <= now
		if !soleOK {
			// Another accelerator may still be reading under its lease;
			// the write epoch cannot open until GTIME passes.
			x.cStallGTime.Inc()
			if x.obsv != nil {
				x.observe(obs.Observation{Kind: obs.GTimeStall, Addr: a,
					Peer: int32(m.Src), Arg: l.GTime})
			}
			x.scheduleProcessAt(l.GTime+x.cfg.LeaseSlack, m)
			return
		}
		l.WLock = true
		x.holder[slot] = int(m.Src)
		if expiry > l.GTime {
			l.GTime = expiry
		}
		x.grant(m, l, true, expiry)
		x.tilePool.Put(m)
		return
	}
	// Read lease. If every previously granted lease has lapsed (GTIME in
	// the past), this requester becomes the sole holder — stale holdership
	// from long-expired leases must not pin the line as "shared".
	if h := x.holder[slot]; h == holderAbsent || h == holderNone || l.GTime <= now {
		x.holder[slot] = int(m.Src)
	} else if h != int(m.Src) {
		x.holder[slot] = holderMultiple
	}
	if expiry > l.GTime {
		l.GTime = expiry
	}
	x.grant(m, l, false, expiry)
	x.tilePool.Put(m)
}

// grant sends a lease response back to the requesting L0X.
func (x *L1X) grant(m *TileMsg, l *cache.Line, write bool, expiry uint64) {
	var link *interconnect.Link
	if int(m.Src) < len(x.toL0X) {
		link = x.toL0X[m.Src]
	}
	if link == nil {
		sim.Failf(x.name, x.eng.Now(), x.DumpState(), "no downlink to axc %d", m.Src)
	}
	if write {
		x.cGrantsW.Inc()
	} else {
		x.cGrantsR.Inc()
	}
	if x.obsv != nil {
		kind := obs.LeaseGrant
		if write {
			kind = obs.EpochGrant
		}
		a := uint64(m.Addr.LineAddr())
		x.observe(obs.Observation{Kind: kind, Addr: a, Peer: int32(m.Src), Arg: expiry})
		x.observe(obs.Observation{Kind: obs.Grant, Addr: a, Ver: l.Ver, Lease: expiry})
	}
	g := x.tilePool.Get()
	g.Type, g.Addr, g.PID, g.Src = MsgLease, m.Addr, m.PID, -1
	g.Lease, g.Write, g.Ver = expiry, write, l.Ver
	link.Send(g)
}

// writeback accepts dirty data (or an epoch release) from an L0X.
func (x *L1X) writeback(m *TileMsg) {
	a := uint64(m.Addr.LineAddr())
	x.access()
	l := x.arr.LookupPID(a, m.PID)
	if l == nil {
		// The line was reclaimed by a host forward while the L0X held it;
		// the data must still reach the host side. Rare but legal.
		x.cWBOrphan.Inc()
		pa, _ := x.tlb.Translate(m.PID, m.Addr)
		put := x.mesiPool.Get()
		put.Type, put.Addr, put.Src, put.Dst, put.Ver =
			mesi.MsgPutM, pa.LineAddr(), x.agent, mesi.DirID, m.Ver
		x.fabric.Send(put)
		return
	}
	if m.Ver > l.Ver {
		l.Ver = m.Ver
		l.Dirty = true
	}
	// Any non-through writeback closes the epoch. The holder identity is
	// deliberately not checked: under FUSION-Dx the lease migrates to the
	// consumer L0X without informing the L1X (Section 3.2).
	slot := x.arr.SlotOf(a, l)
	if l.WLock && !m.Through {
		l.WLock = false
		x.holder[slot] = holderNone
	}
	x.cWBIn.Inc()
	if !m.Through {
		x.wake(slot)
	}
}

// wake replays stalled lease requests for a line after an epoch closes.
func (x *L1X) wake(slot int) {
	q := x.waiting[slot]
	if len(q) == 0 {
		return
	}
	x.waiting[slot] = q[:0] // keep the capacity for the next epoch
	for i, m := range q {
		x.scheduleProcess(1, m)
		q[i] = nil
	}
}

// newTxn returns a zeroed fetch record, reusing a recycled one if possible.
func (x *L1X) newTxn() *l1txn {
	if n := len(x.freeTxns); n > 0 {
		t := x.freeTxns[n-1]
		x.freeTxns[n-1] = nil
		x.freeTxns = x.freeTxns[:n-1]
		w := t.waiters[:0]
		*t = l1txn{waiters: w}
		return t
	}
	return &l1txn{}
}

// missFetch starts (or joins) a host-side fetch. The tile always requests
// exclusive (GetM): the L1X caches every block in E/M regardless of the
// accelerator operation (Section 3.2).
func (x *L1X) missFetch(a uint64, m *TileMsg) {
	if slot := x.mshr.Slot(a); slot >= 0 {
		t := x.txns[slot]
		t.waiters = append(t.waiters, m)
		return
	}
	if x.mshr.Full() {
		// Retry the request later rather than dropping it.
		x.scheduleProcess(4, m)
		x.cMSHRFull.Inc()
		return
	}
	// AX-TLB sits here, on the miss path (Lesson 8).
	pa, walk := x.tlb.Translate(m.PID, mem.VAddr(a))
	pa = pa.LineAddr()

	// Synonym check (appendix): if the tile already caches this physical
	// line under a different virtual address, evict the duplicate locally —
	// the tile still owns the line, so no host transaction is needed — and
	// rehome the data under the new alias.
	if ptr, ok := x.rmap.Lookup(pa); ok {
		if x.resolveSynonym(a, m, pa, ptr) {
			return
		}
	}

	x.cMisses.Inc()
	t := x.newTxn()
	t.va, t.pa, t.pid, t.acksNeeded = a, pa, m.PID, -1
	t.waiters = append(t.waiters, m)
	x.txns[x.mshr.Allocate(a)] = t
	if x.obsv != nil {
		x.observe(obs.Observation{Kind: obs.L1XFetch, Addr: a, Arg: uint64(pa)})
	}
	x.eng.ScheduleCall(walk+1, x, opL1XSendGetM, uint64(pa))
}

// resolveSynonym rehomes a physical line cached under another virtual alias.
// It returns true when the request was handled (served or rescheduled).
func (x *L1X) resolveSynonym(a uint64, m *TileMsg, pa mem.PAddr, ptr ReversePointer) bool {
	oldVA := uint64(ptr.VAddr.LineAddr())
	if oldVA == a && ptr.PID == m.PID {
		return false // same line; a plain miss race, fall through to fetch
	}
	old := x.arr.LookupPID(oldVA, ptr.PID)
	if old == nil {
		return false
	}
	oldSlot := x.arr.SlotOf(oldVA, old)
	if old.WLock {
		// A write epoch is open under the old alias; retry after it drains.
		x.waiting[oldSlot] = append(x.waiting[oldSlot], m)
		return true
	}
	x.cSynEvict.Inc()
	ver, dirty, gtime := old.Ver, old.Dirty, old.GTime
	x.rmap.Remove(pa)
	x.holder[oldSlot] = holderAbsent
	*old = cache.Line{}

	l := x.install(a, m.PID, pa, ver)
	if l == nil {
		x.scheduleProcess(2, m)
		return true
	}
	l.Dirty = dirty
	if gtime > l.GTime {
		l.GTime = gtime // stale leases on the old alias must still be honored
	}
	x.scheduleProcess(1, m)
	return true
}

// HandleMESI is the tile's endpoint on the host fabric. Messages consumed
// synchronously are released here; forwards hand ownership to respondHost.
func (x *L1X) HandleMESI(m *mesi.Msg) {
	switch m.Type {
	case mesi.MsgData, mesi.MsgDataE, mesi.MsgDataM:
		x.fillFromHost(m)
		x.mesiPool.Put(m)
	case mesi.MsgFwdGetS, mesi.MsgFwdGetM:
		x.hostForward(m)
	case mesi.MsgInv:
		// A DMA write targeting a line the tile owns (mixed placements, see
		// internal/systems ADAPTIVE): relinquish for real — the ack carries
		// the dirty version back to the directory.
		x.hostInvalidate(m)
	case mesi.MsgPutAck:
		if i := x.evictFind(m.Addr.LineAddr()); i >= 0 {
			x.evictRemove(i)
		}
		x.mesiPool.Put(m)
	case mesi.MsgInvAck:
		// GetM with requester-collected acks: the tile counts them like any
		// other requester. Tracked on the txn below.
		x.invAck(m)
		x.mesiPool.Put(m)
	default:
		sim.Failf(x.name, x.eng.Now(), x.DumpState(), "unexpected host %s", m)
	}
}

// slotByPA finds the pending fetch for a physical line by walking the MSHR
// occupancy bitmap (the txn records the translation).
func (x *L1X) slotByPA(pa mem.PAddr) int {
	for w := x.mshr.Occupied(); w != 0; w &= w - 1 {
		s := bits.TrailingZeros64(w)
		if t := x.txns[s]; t != nil && t.pa == pa {
			return s
		}
	}
	return -1
}

// invAck notes one invalidation ack for a pending exclusive fetch.
func (x *L1X) invAck(m *mesi.Msg) {
	slot := x.slotByPA(m.Addr.LineAddr())
	if slot < 0 {
		sim.Failf(x.name, x.eng.Now(), x.DumpState(), "InvAck with no fetch: %s", m)
	}
	t := x.txns[slot]
	t.acksGot++
	x.maybeFill(t)
}

// fillFromHost completes a fetch once data (and acks) arrive.
func (x *L1X) fillFromHost(m *mesi.Msg) {
	pa := m.Addr.LineAddr()
	slot := x.slotByPA(pa)
	if slot < 0 {
		sim.Failf(x.name, x.eng.Now(), x.DumpState(), "data with no fetch: %s", m)
	}
	t := x.txns[slot]
	t.arrived = true
	t.ver = m.Ver
	if t.acksNeeded == -1 {
		t.acksNeeded = m.AckCount
	}
	x.maybeFill(t)
}

func (x *L1X) maybeFill(t *l1txn) {
	if !t.arrived || t.acksGot < t.acksNeeded {
		return
	}
	if x.filterOn && x.bypassDecision(t) {
		x.bypassFill(t)
		return
	}
	l := x.install(t.va, t.pid, t.pa, t.ver)
	if l == nil {
		x.eng.Schedule(2, func(uint64) { x.maybeFill(t) })
		return
	}
	x.txns[x.mshr.Free(t.va)] = nil
	x.eng.Progress() // host fetch resolved: heartbeat
	unb := x.mesiPool.Get()
	unb.Type, unb.Addr, unb.Src, unb.Dst, unb.Excl =
		mesi.MsgUnblock, t.pa, x.agent, mesi.DirID, true
	x.fabric.Send(unb)
	for _, w := range t.waiters {
		x.scheduleProcess(1, w)
	}
	x.freeTxns = append(x.freeTxns, t)
}

// bypassDecision reports whether the completed fetch t should skip
// allocation. Only pure-load fetches are eligible — a waiting store needs
// a write epoch, which only an installed line can host. The deadline term
// wins over the reuse term so deadline bypasses are attributed to it.
func (x *L1X) bypassDecision(t *l1txn) bool {
	if len(t.waiters) == 0 {
		return false
	}
	for _, w := range t.waiters {
		if w.Type != MsgGetL {
			return false
		}
	}
	if x.meter != nil {
		x.meter.Add(energy.CatPolicy, x.bypassPJ)
	}
	if x.deadline != 0 && x.eng.Now() >= x.deadline &&
		(x.mut == nil || !x.mut.IgnoreDeadline) {
		x.cBypassDeadline.Inc()
		return true
	}
	if n, _ := x.touches.Get(t.va); int(n) < x.bypassThreshold {
		x.cBypassAlloc.Inc()
		return true
	}
	return false
}

// bypassFill completes a filtered fetch without allocating: every waiting
// load receives the fetched data one-shot (MsgLease with NoAlloc set and a
// zero lease), the directory transaction is unblocked, and ownership is
// relinquished immediately — the clean line never enters the array. The
// eviction buffer holds the data until PutAck so a racing host forward is
// still served.
func (x *L1X) bypassFill(t *l1txn) {
	for _, w := range t.waiters {
		var link *interconnect.Link
		if int(w.Src) < len(x.toL0X) {
			link = x.toL0X[w.Src]
		}
		if link == nil {
			sim.Failf(x.name, x.eng.Now(), x.DumpState(), "no downlink to axc %d", w.Src)
		}
		g := x.tilePool.Get()
		g.Type, g.Addr, g.PID, g.Src = MsgLease, w.Addr, w.PID, -1
		g.Ver, g.NoAlloc = t.ver, true
		link.Send(g)
		x.tilePool.Put(w)
	}
	x.txns[x.mshr.Free(t.va)] = nil
	x.eng.Progress() // host fetch resolved: heartbeat
	unb := x.mesiPool.Get()
	unb.Type, unb.Addr, unb.Src, unb.Dst, unb.Excl =
		mesi.MsgUnblock, t.pa, x.agent, mesi.DirID, true
	x.fabric.Send(unb)
	x.evictPut(t.pa, evictBuf{ver: t.ver})
	put := x.mesiPool.Get()
	put.Type, put.Addr, put.Src, put.Dst = mesi.MsgPutE, t.pa, x.agent, mesi.DirID
	x.fabric.Send(put)
	x.freeTxns = append(x.freeTxns, t)
}

// install places a host-fetched line in the array.
func (x *L1X) install(va uint64, pid mem.PID, pa mem.PAddr, ver uint64) *cache.Line {
	v := x.pickVictim(va)
	if v == nil {
		return nil
	}
	x.evictLine(v)
	x.arr.Fill(v, va, pid)
	x.access()
	v.State = cache.Exclusive
	v.PAddr = pa
	v.Ver = ver
	if prev, dup := x.rmap.Insert(pa, ReversePointer{VAddr: mem.VAddr(va), PID: pid}); dup {
		// Synonym: only one virtual alias may live in the tile (appendix).
		if old := x.arr.Peek(uint64(prev.VAddr.LineAddr())); old != nil && old.PAddr == pa {
			x.evictNoNotice(old)
		}
		x.cSynEvict.Inc()
	}
	return v
}

// pickVictim avoids lines with live leases, open write epochs, or pending
// transactions — evicting a leased line would break the GTIME contract.
func (x *L1X) pickVictim(va uint64) *cache.Line {
	now := x.eng.Now()
	for i := 0; i < x.arr.Params().Ways; i++ {
		v := x.arr.Victim(va)
		if !v.Valid {
			return v
		}
		if x.mshr.Slot(v.Addr) < 0 && !v.WLock && v.GTime <= now {
			return v
		}
		x.arr.Touch(v)
	}
	return nil
}

// evictLine pushes a victim back to the host: PutM when dirty, otherwise an
// explicit eviction notice (the tile never drops silently — the directory
// keeps perfect information, Section 3.2).
func (x *L1X) evictLine(v *cache.Line) {
	if !v.Valid {
		return
	}
	x.cEvictions.Inc()
	x.rmap.Remove(v.PAddr)
	x.holder[x.arr.SlotOf(v.Addr, v)] = holderAbsent
	put := x.mesiPool.Get()
	if v.Dirty {
		x.evictPut(v.PAddr, evictBuf{ver: v.Ver, dirty: true})
		put.Type, put.Addr, put.Src, put.Dst, put.Ver =
			mesi.MsgPutM, v.PAddr, x.agent, mesi.DirID, v.Ver
	} else {
		x.evictPut(v.PAddr, evictBuf{ver: v.Ver})
		put.Type, put.Addr, put.Src, put.Dst = mesi.MsgPutE, v.PAddr, x.agent, mesi.DirID
	}
	x.fabric.Send(put)
	*v = cache.Line{}
}

// evictNoNotice drops a synonym duplicate, writing back dirty data.
func (x *L1X) evictNoNotice(v *cache.Line) {
	if v.Dirty {
		put := x.mesiPool.Get()
		put.Type, put.Addr, put.Src, put.Dst, put.Ver =
			mesi.MsgPutM, v.PAddr, x.agent, mesi.DirID, v.Ver
		x.fabric.Send(put)
	}
	x.rmap.Remove(v.PAddr)
	x.holder[x.arr.SlotOf(v.Addr, v)] = holderAbsent
	*v = cache.Line{}
}

// hostInvalidate answers a directory invalidation (a DMA write to a line
// the tile may own). Like a host forward, the response waits until every
// L0X lease has lapsed and any write epoch has drained; the line is then
// dropped and the InvAck returns its version so the directory can merge
// the tile's stores before committing the DMA data. Consumes m.
func (x *L1X) hostInvalidate(m *mesi.Msg) {
	pa := m.Addr.LineAddr()
	ptr, ok := x.rmap.Lookup(pa)
	if !ok {
		// Not resident: either never cached here, or an eviction is in
		// flight — the buffered copy still carries the version the
		// directory must not lose.
		var buf evictBuf
		if i := x.evictFind(pa); i >= 0 {
			buf = x.evict[i].evictBuf
		}
		x.invAckHost(m, buf.ver, buf.dirty)
		return
	}
	x.tryInvalidate(m, ptr, true)
}

// tryInvalidate drops an invalidated line once its leases have lapsed
// (the Inv counterpart of tryRelinquish).
func (x *L1X) tryInvalidate(m *mesi.Msg, ptr ReversePointer, first bool) {
	pa := m.Addr.LineAddr()
	va := uint64(ptr.VAddr.LineAddr())
	l := x.arr.LookupPID(va, ptr.PID)
	if l == nil {
		var buf evictBuf
		if i := x.evictFind(pa); i >= 0 {
			buf = x.evict[i].evictBuf
		}
		x.invAckHost(m, buf.ver, buf.dirty)
		return
	}
	now := x.eng.Now()
	if l.GTime > now || l.WLock {
		if first {
			x.cFwdStalled.Inc()
			if x.obsv != nil {
				x.observe(obs.Observation{Kind: obs.InvParked, Addr: va, Arg: l.GTime})
			}
		}
		wake := l.GTime + x.cfg.LeaseSlack
		if wake <= now {
			wake = now + x.cfg.LeaseSlack
		}
		x.eng.ScheduleAt(wake, func(uint64) { x.tryInvalidate(m, ptr, false) })
		return
	}
	x.access()
	ver, dirty := l.Ver, l.Dirty
	x.rmap.Remove(pa)
	x.holder[x.arr.SlotOf(va, l)] = holderAbsent
	*l = cache.Line{}
	x.invAckHost(m, ver, dirty)
}

// invAckHost sends the invalidation ack (with the dropped line's version,
// if any) and releases the consumed Inv request.
func (x *L1X) invAckHost(m *mesi.Msg, ver uint64, dirty bool) {
	ack := x.mesiPool.Get()
	ack.Type, ack.Addr, ack.Src, ack.Dst = mesi.MsgInvAck, m.Addr, x.agent, m.Requester
	ack.Dirty, ack.Ver = dirty, ver
	x.fabric.Send(ack)
	x.mesiPool.Put(m)
}

// hostForward answers a MESI Fwd from the host directory. The AX-RMAP
// resolves the physical address to the virtually-indexed line; the response
// stalls in the writeback buffer until GTIME expires and any write epoch
// has drained (Figure 4, right).
func (x *L1X) hostForward(m *mesi.Msg) {
	pa := m.Addr.LineAddr()
	x.cHostFwds.Inc()
	if x.obsv != nil {
		x.observe(obs.Observation{Kind: obs.HostFwd, Addr: uint64(pa), Phys: true,
			Write: m.Type == mesi.MsgFwdGetM})
	}
	ptr, ok := x.rmap.Lookup(pa)
	if !ok {
		if i := x.evictFind(pa); i >= 0 {
			// Eviction raced with the forward: serve from the buffer.
			buf := x.evict[i].evictBuf
			x.evictRemove(i)
			x.respondHost(m, buf.ver, buf.dirty)
			return
		}
		sim.Failf(x.name, x.eng.Now(), x.DumpState(), "host fwd for unmapped line %s", m)
	}
	x.tryRelinquish(m, ptr, true)
}

// tryRelinquish answers a host forward once the line's leases have lapsed.
// Retries reuse the already-resolved pointer (no extra RMAP lookups).
func (x *L1X) tryRelinquish(m *mesi.Msg, ptr ReversePointer, first bool) {
	pa := m.Addr.LineAddr()
	va := uint64(ptr.VAddr.LineAddr())
	l := x.arr.LookupPID(va, ptr.PID)
	if l == nil {
		if i := x.evictFind(pa); i >= 0 {
			buf := x.evict[i].evictBuf
			x.evictRemove(i)
			x.respondHost(m, buf.ver, buf.dirty)
			return
		}
		sim.Failf(x.name, x.eng.Now(), x.DumpState(), "rmap points at absent line %s", m)
	}
	now := x.eng.Now()
	if l.GTime > now || l.WLock {
		// L0X leases outstanding: park the response until they lapse. The
		// L1X alone absorbs the stall; no message ever disturbs an L0X
		// (Figure 4, right: the writeback buffer).
		if first {
			x.cFwdStalled.Inc()
			if x.obsv != nil {
				x.observe(obs.Observation{Kind: obs.FwdParked, Addr: va, Arg: l.GTime})
			}
		}
		wake := l.GTime + x.cfg.LeaseSlack
		if wake <= now {
			wake = now + x.cfg.LeaseSlack
		}
		x.eng.ScheduleAt(wake, func(uint64) { x.tryRelinquish(m, ptr, false) })
		return
	}
	x.access()
	ver, dirty := l.Ver, l.Dirty
	x.rmap.Remove(pa)
	x.holder[x.arr.SlotOf(va, l)] = holderAbsent
	*l = cache.Line{}
	x.respondHost(m, ver, dirty)
}

// respondHost relinquishes a line to the host requester: data directly to
// the requester, an eviction notice (OwnerAck, dropped) to the directory.
// It consumes (releases) the forwarded request m.
func (x *L1X) respondHost(m *mesi.Msg, ver uint64, dirty bool) {
	if x.obsv != nil {
		x.observe(obs.Observation{Kind: obs.Relinquish, Addr: uint64(m.Addr.LineAddr()),
			Phys: true, Peer: int32(m.Requester), Write: dirty})
	}
	dt := mesi.MsgData
	if m.Type == mesi.MsgFwdGetM {
		dt = mesi.MsgDataM
	}
	data := x.mesiPool.Get()
	data.Type, data.Addr, data.Src, data.Dst, data.Ver = dt, m.Addr, x.agent, m.Requester, ver
	x.fabric.Send(data)
	ack := x.mesiPool.Get()
	ack.Type, ack.Addr, ack.Src, ack.Dst = mesi.MsgOwnerAck, m.Addr, x.agent, mesi.DirID
	ack.Dirty, ack.Dropped, ack.Ver = dirty, true, ver
	x.fabric.Send(ack)
	x.mesiPool.Put(m)
}

// FlushAll writes every dirty line back to the host and invalidates the
// tile (end of workload).
func (x *L1X) FlushAll() {
	x.arr.ForEach(func(l *cache.Line) {
		x.evictLine(l)
	})
}

// Outstanding reports in-flight host fetches plus eviction buffers.
func (x *L1X) Outstanding() int { return x.mshr.Len() + len(x.evict) }

// DumpState summarizes in-flight host fetches, stalled lease requests, and
// eviction buffers for watchdog/failure diagnostics. Empty when idle.
func (x *L1X) DumpState() string {
	stalled := 0
	for slot := range x.waiting {
		if len(x.waiting[slot]) > 0 {
			stalled++
		}
	}
	if x.mshr.Len() == 0 && stalled == 0 && len(x.evict) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d host fetches, %d wlock queues, %d evict buffers, %d/%d MSHRs\n",
		x.name, x.mshr.Len(), stalled, len(x.evict), x.mshr.Len(), x.cfg.MSHRs)
	for _, va := range x.mshr.Outstanding() {
		t := x.txns[x.mshr.Slot(va)]
		fmt.Fprintf(&b, "  fetch va=%#x pa=%#x arrived=%v acks=%d/%d waiters=%d\n",
			t.va, uint64(t.pa), t.arrived, t.acksGot, t.acksNeeded, len(t.waiters))
	}
	type stall struct {
		va uint64
		n  int
	}
	var stalls []stall
	for slot := range x.waiting {
		if n := len(x.waiting[slot]); n > 0 {
			stalls = append(stalls, stall{x.arr.LineAt(slot).Addr, n})
		}
	}
	sort.Slice(stalls, func(i, j int) bool { return stalls[i].va < stalls[j].va })
	for _, s := range stalls {
		fmt.Fprintf(&b, "  wlock-stalled va=%#x waiters=%d\n", s.va, s.n)
	}
	return b.String()
}

// Peek exposes a line for tests.
func (x *L1X) Peek(va mem.VAddr, pid mem.PID) *cache.Line {
	l := x.arr.Peek(uint64(va.LineAddr()))
	if l != nil && l.PID != pid {
		return nil
	}
	return l
}
