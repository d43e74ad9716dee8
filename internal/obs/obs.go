// Package obs is the simulator's one event stream. Every agent-facing
// data port — L0X and L1X in the accelerator tile, mesi.Client on the host
// side, the SCRATCH scratchpad — reports each load and store an agent
// performs as an Observation, and the coherence controllers (L0X, L1X,
// the host directory) report every protocol transition the same way: the
// message sequences of the paper's Figures 4 and 5. Consumers pick what
// they need from the one stream: the litmus recorder (internal/litmus)
// keeps the value observations and replays them against the system's
// declared visibility model; Writer and Collector keep everything, as
// text or in memory.
//
// The hook is designed for a zero-cost off state: components hold a nil
// Observer by default and guard every Record call with a nil check, so the
// per-cycle hot path stays within the allocation budgets (BENCH_BUDGET.json)
// when observation is off. Observation is passed by value — recording
// never allocates in the component; the Observer owns any buffering.
package obs

import (
	"fmt"
	"io"
)

// Kind classifies an observation.
type Kind uint8

// The value observations come first: Load, Store and Fill are what the
// litmus checker replays, and the litmus recorder keeps exactly those plus
// Grant. Every later kind is a marker or a protocol transition.
const (
	// Load is an agent-visible read; Ver is the version the agent observed.
	Load Kind = iota
	// Store is an agent-visible write; Ver is the version it produced.
	Store
	// Fill is data installed into an agent-local store from the backing
	// hierarchy (scratchpad DMA-in); Ver is the version installed.
	Fill
	// Grant is an L1X lease grant: Ver is the version handed out, Lease
	// its expiry (diagnostic only; not value-checked).
	Grant
	// Epoch marks the start of synchronization epoch Epoch at Cycle; the
	// systems runner emits it at every phase boundary.
	Epoch

	// ACC-protocol transitions (accelerator tile). Addr is the virtual
	// line address unless noted.

	L0XMiss        // lease/epoch request leaves an L0X; Write marks a GetW
	LeaseGrant     // L1X grants a read lease to axc Peer, expiring at Arg
	EpochGrant     // L1X grants a write epoch to axc Peer, expiring at Arg
	SelfInvalidate // L0X drops an expired line (no message)
	SelfDowngrade  // write epoch expiry forces a writeback
	Writeback      // dirty line returns to the L1X
	DxForward      // producer pushes a line to consumer axc Peer, lease Arg
	WLockStall     // axc Peer's request parked behind a write epoch; Write marks a GetW
	GTimeStall     // axc Peer's write parked behind foreign read leases until GTIME Arg
	L1XFetch       // L1X miss goes to the host (via AX-TLB) for physical line Arg
	HostFwd        // MESI forward arrives at the tile (physical Addr); Write marks FwdGetM
	FwdParked      // forward response waits in the WB buffer for GTIME Arg
	InvParked      // invalidation ack waits in the WB buffer for GTIME Arg
	Relinquish     // tile gives the line to host agent Peer; Write marks dirty data

	// Host-MESI directory transactions (physical Addr), requested by
	// agent Peer.

	DirGetS
	DirGetM
	DirFwd // forward to owner Peer on behalf of agent Arg; Write marks FwdGetM
	DirPut
	DirDMARead
	DirDMAWrite
)

var kindNames = [...]string{
	"LD", "ST", "FILL", "GRANT", "EPOCH",
	"l0x-miss", "lease-grant", "epoch-grant", "self-invalidate",
	"self-downgrade", "writeback", "dx-forward", "wlock-stall",
	"gtime-stall", "l1x-fetch", "host-fwd", "fwd-parked", "inv-parked",
	"relinquish",
	"dir-gets", "dir-getm", "dir-fwd", "dir-put", "dir-dma-read",
	"dir-dma-write",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Observation is one event: who did what to which address at which cycle.
// Value observations carry the modeled payload version involved and — for
// leased (L0X) accesses — the lease under which the value was readable;
// protocol transitions carry typed operands (Peer, Arg, Write) whose
// meaning each Kind documents.
type Observation struct {
	Cycle uint64
	Agent string // stable component name, e.g. "l0x.1", "hostl1", "dir"
	// Addr is the full accessed address; line = Addr &^ (LineBytes-1),
	// offset = Addr & (LineBytes-1). Virtual for tile-side agents,
	// physical (Phys=true) for host-side MESI agents.
	Addr uint64
	// Ver is the modeled payload version: observed on Load/Fill, produced
	// on Store.
	Ver uint64
	// Lease is the absolute expiry the value was readable until, for reads
	// and writes performed under an ACC lease. Zero marks a strict
	// (invalidation-coherent) agent, which must always observe the latest
	// globally-ordered write.
	Lease uint64
	// Arg is a protocol transition's integer operand: a lease expiry, a
	// GTIME, a physical line address, or a requesting agent.
	Arg uint64
	// Epoch is the synchronization epoch (phase index) the access belongs
	// to. Components leave it zero; the systems runner sets it on Epoch
	// marks and the litmus recorder stamps it on every value observation.
	Epoch int32
	// Peer is the other agent of a protocol transition: an accelerator id
	// in the tile, a fabric agent id on the host side.
	Peer int32
	Kind Kind
	// Phys marks Addr as a physical address (host-side agents observe
	// post-translation addresses).
	Phys bool
	// Delta marks a scratchpad store to a write-allocated line whose base
	// version is unknown; Ver is a within-window delta, not absolute.
	Delta bool
	// Write marks the write form of a protocol transition: a GetW request,
	// a FwdGetM forward, or a relinquish of dirty data.
	Write bool
}

// String formats o as one trace line: cycle, agent, kind, address, and
// the kind's operands.
func (o Observation) String() string {
	s := fmt.Sprintf("%8d  %-8s %-16s %#x", o.Cycle, o.Agent, o.Kind, o.Addr)
	if d := o.detail(); d != "" {
		s += "  " + d
	}
	return s
}

func (o Observation) detail() string {
	req, fwd := "GetL", "FwdGetS"
	if o.Write {
		req, fwd = "GetW", "FwdGetM"
	}
	switch o.Kind {
	case Load, Store, Fill, Grant:
		return fmt.Sprintf("v%d lease=%d", o.Ver, o.Lease)
	case Epoch:
		return fmt.Sprintf("epoch %d", o.Epoch)
	case L0XMiss:
		return req
	case LeaseGrant, EpochGrant, GTimeStall:
		return fmt.Sprintf("axc%d until %d", o.Peer, o.Arg)
	case DxForward:
		return fmt.Sprintf("to axc%d lease=%d", o.Peer, o.Arg)
	case WLockStall:
		return fmt.Sprintf("axc%d %s", o.Peer, req)
	case L1XFetch:
		return fmt.Sprintf("pa=%#x", o.Arg)
	case HostFwd:
		return fwd
	case FwdParked, InvParked:
		return fmt.Sprintf("until GTIME %d", o.Arg)
	case Relinquish:
		return fmt.Sprintf("to agent%d dirty=%v", o.Peer, o.Write)
	case DirGetS, DirGetM, DirPut, DirDMARead, DirDMAWrite:
		return fmt.Sprintf("from agent%d", o.Peer)
	case DirFwd:
		return fmt.Sprintf("%s to agent%d for agent%d", fwd, o.Peer, o.Arg)
	default:
		return ""
	}
}

// Observer receives the event stream. Implementations must be cheap:
// Record runs on cache hit paths.
type Observer interface {
	Record(o Observation)
}

// Writer streams formatted events to an io.Writer, optionally stopping
// after Max events (0 = unlimited).
type Writer struct {
	W   io.Writer
	Max int
	n   int
}

// Record implements Observer.
func (t *Writer) Record(o Observation) {
	if t.Max > 0 && t.n >= t.Max {
		return
	}
	t.n++
	fmt.Fprintln(t.W, o.String())
	if t.Max > 0 && t.n == t.Max {
		fmt.Fprintf(t.W, "... (trace capped at %d events)\n", t.Max)
	}
}

// Collector accumulates events in memory, optionally bounded by Max.
type Collector struct {
	Max    int
	Events []Observation
}

// Record implements Observer.
func (c *Collector) Record(o Observation) {
	if c.Max > 0 && len(c.Events) >= c.Max {
		return
	}
	c.Events = append(c.Events, o)
}

// Count returns how many events of kind k were collected.
func (c *Collector) Count(k Kind) int {
	n := 0
	for _, e := range c.Events {
		if e.Kind == k {
			n++
		}
	}
	return n
}

// Filter returns the collected events of kind k.
func (c *Collector) Filter(k Kind) []Observation {
	var out []Observation
	for _, e := range c.Events {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}
