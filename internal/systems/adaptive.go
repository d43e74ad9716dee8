package systems

// The ADAPTIVE system: Cohmeleon-style per-task placement (PAPERS.md).
// Every accelerator task is profiled over a bounded decision window and a
// Policy picks where its data lives for the task's duration:
//
//   - PlaceL0X:      the FUSION lease hierarchy (private L0X over the
//                    shared L1X);
//   - PlaceScratch:  a software-managed scratchpad with oracle-windowed
//                    DMA, like SCRATCH;
//   - PlaceUncached: no on-tile allocation at all — every access is one
//                    coherent round trip at the LLC.
//
// A line may migrate placement between tasks (scratchpad in one phase,
// L0X-cached in the next). Visibility stays sound because every placement
// is coherent at phase granularity: the L0X path drains its leases at task
// end, the scratchpad path DMA-drains its dirty lines at window end, and
// the uncached path commits every store at the LLC before it completes —
// so the next epoch always begins from the globally-ordered image. The
// litmus placement-migration case pins this down.

import (
	"fmt"
	"sort"

	"fusion/internal/acc"
	"fusion/internal/energy"
	"fusion/internal/flat"
	"fusion/internal/mem"
	"fusion/internal/obs"
	"fusion/internal/scratchpad"
	"fusion/internal/stats"
	"fusion/internal/trace"
	"fusion/internal/workloads"
)

// uncachedOp is one queued access of an uncachedPort line.
type uncachedOp struct {
	kind mem.AccessKind
	va   mem.VAddr
	done func(now uint64)
}

// lineQueue is a line's serialization state: busy while one op is in
// flight, with the ops queued behind it. Entries are never deleted — a
// drained line parks as {busy: false, q: q[:0]}, so steady state never
// reallocates.
type lineQueue struct {
	busy bool
	q    []uncachedOp
}

// uncachedPort implements accel.MemPort for the uncached placement: loads
// pull the coherent version through the directory, stores commit at the
// LLC as version deltas. Operations on one line are serialized — the DMA
// engine rejects overlapping writes, and serialization keeps the strict
// observation stream in version order.
type uncachedPort struct {
	m    *machine
	dma  *scratchpad.DMA
	name string
	obsv obs.Observer
	// inflight holds each line's serialization state.
	inflight  *flat.Map[lineQueue]
	cAccesses *stats.Counter
}

func (p *uncachedPort) Access(kind mem.AccessKind, va mem.VAddr, done func(uint64)) bool {
	p.cAccesses.Inc()
	la := uint64(va.LineAddr())
	op := uncachedOp{kind: kind, va: va, done: done}
	if l := p.inflight.Ptr(la); l != nil {
		if l.busy {
			l.q = append(l.q, op)
			return true
		}
		l.busy = true
	} else {
		p.inflight.Put(la, lineQueue{busy: true})
	}
	p.issue(la, op)
	return true
}

func (p *uncachedPort) issue(la uint64, op uncachedOp) {
	pa := p.m.translate(mem.VAddr(la))
	if op.kind == mem.Store {
		// One store = one +1 version delta accumulated at the LLC, the
		// same commit rule the scratchpad drain uses for write-allocated
		// lines.
		p.dma.WriteLine(pa, 1, true, func(now uint64) {
			if p.obsv != nil {
				p.obsv.Record(obs.Observation{Cycle: now, Agent: p.name,
					Addr: uint64(op.va), Ver: 1, Kind: obs.Store, Delta: true})
			}
			op.done(now)
			p.next(la)
		})
		return
	}
	p.dma.ReadLine(pa, func(ver uint64) {
		now := p.m.eng.Now()
		if p.obsv != nil {
			// Lease zero: an uncached read is a strict observation — it
			// must see the latest globally-ordered version.
			p.obsv.Record(obs.Observation{Cycle: now, Agent: p.name,
				Addr: uint64(op.va), Ver: ver, Kind: obs.Load})
		}
		op.done(now)
		p.next(la)
	})
}

func (p *uncachedPort) next(la uint64) {
	l := p.inflight.Ptr(la)
	if len(l.q) == 0 {
		l.busy = false
		return
	}
	op := l.q[0]
	copy(l.q, l.q[1:])
	l.q = l.q[:len(l.q)-1]
	p.issue(la, op)
}

// --------------------------------------------------------------- ADAPTIVE

func runAdaptive(m *machine, b *workloads.Benchmark, cfg Config, res *Result) error {
	pol, err := newPolicy(cfg.Policy)
	if err != nil {
		return err
	}
	n := b.Program.NumAXCs()

	// One tile collocating every AXC (the paper's placement; the Tiles
	// knob is a FUSION-specific ablation and is ignored here).
	var tcfg acc.TileConfig
	spadCfg := scratchpad.Config{SizeBytes: 4 << 10, AccessLat: 1,
		AccessPJ: m.model.ScratchSmall}
	if cfg.Large {
		tcfg = acc.LargeTileConfig(n, m.model)
		spadCfg = scratchpad.Config{SizeBytes: 8 << 10, AccessLat: 1,
			AccessPJ: m.model.ScratchLarge}
	} else {
		tcfg = acc.SmallTileConfig(n, m.model)
	}
	tcfg.Agent = tileAgent
	tcfg.PID = m.pid
	tcfg.L0X.WriteThrough = cfg.WriteThrough
	tcfg.Injector = m.inj
	tile := acc.NewTile(m.eng, m.fab, m.pt, tcfg, m.model, m.mt, m.st)
	if cfg.Observer != nil {
		tile.SetObserver(cfg.Observer)
	}
	if cfg.AccMutations != nil {
		tile.SetMutations(cfg.AccMutations)
	}
	if m.paranoid != nil {
		m.paranoid.tiles = []*acc.Tile{tile}
	}
	if m.wd != nil {
		m.wd.AddDump("tile0", tile.DumpState)
	}

	dma := scratchpad.NewDMA(m.fab, dmaAgent, cfg.DMAOutstanding, cfg.DMAGap, m.st)
	axcs := accelFor(m, b)
	ids := make([]int, 0, len(axcs))
	for axc := range axcs {
		ids = append(ids, axc)
	}
	sort.Ints(ids)
	pads := make(map[int]*scratchpad.Scratchpad)
	ports := make(map[int]*uncachedPort)
	cUncached := m.st.Counter("adaptive.uncached.accesses")
	for _, axc := range ids {
		pads[axc] = scratchpad.New(m.eng, fmt.Sprintf("spad%d", axc), spadCfg, m.mt, m.st)
		if cfg.Observer != nil {
			pads[axc].SetObserver(cfg.Observer)
		}
		if cfg.PadMutations != nil {
			pads[axc].SetMutations(cfg.PadMutations)
		}
		ports[axc] = &uncachedPort{m: m, dma: dma,
			name:      fmt.Sprintf("uncached%d", axc),
			obsv:      cfg.Observer,
			inflight:  flat.New[lineQueue](256),
			cAccesses: cUncached,
		}
	}
	cPlace := [3]*stats.Counter{
		PlaceL0X:      m.st.Counter("adaptive.place_l0x"),
		PlaceScratch:  m.st.Counter("adaptive.place_scratch"),
		PlaceUncached: m.st.Counter("adaptive.place_uncached"),
	}

	// lastToucher feeds the sharing counter: which agent (AXC id, or the
	// host) touched each line most recently in an earlier phase. live
	// feeds the scratchpad oracle exactly as in runScratch.
	lastToucher := make(map[mem.VAddr]int)
	live := make(map[mem.VAddr]bool)
	for _, va := range b.InputLines {
		lastToucher[va.LineAddr()] = hostToucher
		live[va.LineAddr()] = true
	}
	markTouched := func(inv *trace.Invocation, who int) {
		lines, w := inv.Lines()
		for _, la := range lines {
			lastToucher[la] = who
		}
		for la := range w {
			live[la] = true
		}
	}

	var sticky Placement
	haveSticky := false

	for i := range b.Program.Phases {
		ph := &b.Program.Phases[i]
		if cfg.Observer != nil {
			cfg.Observer.Record(obs.Observation{Kind: obs.Epoch, Cycle: m.eng.Now(), Epoch: int32(i)})
		}
		if ph.Kind == trace.PhaseHost {
			if err := runHostPhase(m, &ph.Inv, cfg, res); err != nil {
				return err
			}
			markTouched(&ph.Inv, hostToucher)
			continue
		}

		ax := axcs[ph.Inv.AXC]
		prof := profileTask(&ph.Inv, cfg.DecisionWindow,
			pads[ph.Inv.AXC].CapacityLines(), lastToucher)
		place := pol.Place(prof)
		if cfg.PolicyMutations != nil && cfg.PolicyMutations.StickyPlacement {
			if haveSticky {
				place = sticky
			} else {
				sticky, haveSticky = place, true
			}
		}
		m.mt.Add(energy.CatPolicy, m.model.PolicyCheck)
		cPlace[place].Inc()

		c0 := m.eng.Now()
		e0 := m.mt.Total()
		var dmaCycles uint64
		switch place {
		case PlaceScratch:
			dc, err := runScratchWindows(m, cfg, ax, pads[ph.Inv.AXC], dma, &ph.Inv, live)
			if err != nil {
				return err
			}
			dmaCycles = dc
		case PlaceUncached:
			fired := false
			ax.Start(&ph.Inv, ports[ph.Inv.AXC], func(uint64) { fired = true })
			if err := m.run(cfg.MaxCycles, func() bool { return fired }); err != nil {
				return fmt.Errorf("%s uncached: %w", ph.Inv.Function, err)
			}
		case PlaceL0X:
			l0 := tile.L0Xs[ph.Inv.AXC]
			l0.SetLeaseTime(scaleLease(ph.Inv.LeaseTime, cfg.LeaseScale))
			l0.ClearForwards()
			fired := false
			ax.Start(&ph.Inv, l0, func(uint64) { fired = true })
			if err := m.run(cfg.MaxCycles, func() bool { return fired }); err != nil {
				return fmt.Errorf("%s: %w", ph.Inv.Function, err)
			}
			l0.Drain()
		}
		pol.Observe(prof, place, m.eng.Now()-c0)
		markTouched(&ph.Inv, ph.Inv.AXC)
		res.record(ph.Inv.Function, ph.Inv.AXC, m.eng.Now()-c0, dmaCycles,
			m.mt.Total()-e0)
	}

	// Drain the tile completely: let leases lapse, flush the L1X — the
	// same quiescence dance as runFusion.
	tile.Drain()
	outstanding := func() bool { return tile.Outstanding() == 0 }
	if err := m.run(cfg.MaxCycles, outstanding); err != nil {
		return err
	}
	maxLease := uint64(0)
	fns := make([]string, 0, len(b.LeaseTimes))
	for fn := range b.LeaseTimes {
		fns = append(fns, fn)
	}
	sort.Strings(fns)
	for _, fn := range fns {
		if lt := scaleLease(b.LeaseTimes[fn], cfg.LeaseScale); lt > maxLease {
			maxLease = lt
		}
	}
	idleUntil := m.eng.Now() + maxLease + 64
	for m.eng.Now() < idleUntil {
		m.eng.Progress()
		m.eng.Step()
	}
	tile.L1X.FlushAll()
	if err := m.run(cfg.MaxCycles, outstanding); err != nil {
		return err
	}
	return drainHost(m, cfg)
}
