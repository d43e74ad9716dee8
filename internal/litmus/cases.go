package litmus

import (
	"fmt"

	"fusion/internal/faults"
	"fusion/internal/mem"
	"fusion/internal/systems"
	"fusion/internal/trace"
	"fusion/internal/workloads"
)

// Case is one directed litmus scenario: a small workloads program whose
// allowed outcomes are exactly "the checker accepts the trace" plus any
// scenario assertions proving the protocol path under test actually fired.
type Case struct {
	Name    string
	About   string
	Systems []systems.Kind
	// Build constructs the benchmark (fresh per run; runs mutate nothing
	// but keep ownership clear).
	Build func() *workloads.Benchmark
	// Tune adjusts the run configuration (fault plans, watchdog) before
	// the run. May be nil.
	Tune func(*systems.Config)
	// Check asserts scenario properties on the finished run — typically
	// counter floors proving the exercised path (forwards sent, leases
	// lapsed, grants died in transit). May be nil.
	Check func(kind systems.Kind, res *systems.Result) error
}

// allSystems derives from the systems registry: a new Kind joins every
// generic directed case automatically.
var allSystems = systems.Kinds()

// fusionSystems are the lease-hierarchy variants (HYDRA is FUSION plus the
// cacheability filter; the lease protocol underneath is identical).
var fusionSystems = []systems.Kind{systems.Fusion, systems.FusionDx, systems.Hydra}

// Region layout mirrors workloads.build: page-aligned regions from 1 MiB
// with a guard page between them.
func litmusRegion(idx, lines int) []mem.VAddr {
	base := mem.VAddr(1<<20) + mem.VAddr(idx)*2*mem.VAddr(mem.PageBytes)
	out := make([]mem.VAddr, lines)
	for i := range out {
		out[i] = base + mem.VAddr(i*mem.LineBytes)
	}
	return out
}

// sweep builds one iteration per line per pass, optionally loading and/or
// storing that line, with intOps of compute each.
func sweep(lines []mem.VAddr, doLoad, doStore bool, passes, intOps int) []trace.Iteration {
	var out []trace.Iteration
	for p := 0; p < passes; p++ {
		for _, la := range lines {
			it := trace.Iteration{IntOps: intOps}
			if doLoad {
				it.Loads = []mem.VAddr{la}
			}
			if doStore {
				it.Stores = []mem.VAddr{la}
			}
			out = append(out, it)
		}
	}
	return out
}

// pairSweep builds iterations that load loads[i] and store stores[i].
func pairSweep(loads, stores []mem.VAddr, intOps int) []trace.Iteration {
	n := len(loads)
	if len(stores) < n {
		n = len(stores)
	}
	out := make([]trace.Iteration, n)
	for i := 0; i < n; i++ {
		out[i] = trace.Iteration{
			Loads:  []mem.VAddr{loads[i]},
			Stores: []mem.VAddr{stores[i]},
			IntOps: intOps,
		}
	}
	return out
}

func accelPhase(fn string, axc int, lt uint64, serial bool, iters []trace.Iteration) trace.Phase {
	return trace.Phase{Kind: trace.PhaseAccel, Inv: trace.Invocation{
		Function: fn, AXC: axc, LeaseTime: lt, Serial: serial, Iterations: iters}}
}

func hostPhase(fn string, iters []trace.Iteration) trace.Phase {
	return trace.Phase{Kind: trace.PhaseHost, Inv: trace.Invocation{
		Function: fn, AXC: -1, Iterations: iters}}
}

// counterFloor asserts a stat sum reached at least min.
func counterFloor(res *systems.Result, min int64, stats ...string) error {
	var got int64
	for _, s := range stats {
		got += res.Stats.Get(s)
	}
	if got < min {
		return fmt.Errorf("scenario not exercised: sum(%v) = %d, want >= %d",
			stats, got, min)
	}
	return nil
}

// mpBench: message passing with a host warm-up. The host reads the data
// region first (caching it host-side), accelerator 0 then read-modify-
// writes every line twice, accelerator 1 reads it all back, and the host
// re-reads at the end. Every handoff — host->accel, accel->accel,
// accel->host — must observe the latest write. The host warm-up puts the
// host L1 in the sharer set, so the accelerator's write-ownership request
// crosses a shared directory entry (the reorder-dir-grant mutation point).
func mpBench() *workloads.Benchmark {
	data := litmusRegion(0, 8)
	prog := &trace.Program{Name: "litmus-mp", Phases: []trace.Phase{
		hostPhase("warm", sweep(data, true, false, 1, 4)),
		accelPhase("produce", 0, 600, false, sweep(data, true, true, 2, 4)),
		accelPhase("consume", 1, 600, false, sweep(data, true, false, 2, 4)),
		hostPhase("verify", sweep(data, true, false, 1, 4)),
	}}
	b := &workloads.Benchmark{
		Program:    prog,
		InputLines: append([]mem.VAddr(nil), data...),
		LeaseTimes: map[string]uint64{"produce": 600, "consume": 600},
		MLP:        map[string]int{"produce": 2, "consume": 2},
	}
	workloads.ComputeForwards(b)
	return b
}

// handoffBench: producer-consumer ping-pong over two rounds. AXC0 reads R
// and writes S; AXC1 reads S and writes R; repeat. Each phase must observe
// the previous phase's writes across the task boundary.
func handoffBench() *workloads.Benchmark {
	r := litmusRegion(0, 8)
	s := litmusRegion(1, 8)
	prog := &trace.Program{Name: "litmus-handoff", Phases: []trace.Phase{
		accelPhase("ping", 0, 700, false, pairSweep(r, s, 4)),
		accelPhase("pong", 1, 700, false, pairSweep(s, r, 4)),
		accelPhase("ping", 0, 700, false, pairSweep(r, s, 4)),
		accelPhase("pong", 1, 700, false, pairSweep(s, r, 4)),
		hostPhase("verify", sweep(append(append([]mem.VAddr(nil), r...), s...),
			true, false, 1, 4)),
	}}
	b := &workloads.Benchmark{
		Program:    prog,
		InputLines: append([]mem.VAddr(nil), r...),
		LeaseTimes: map[string]uint64{"ping": 700, "pong": 700},
		MLP:        map[string]int{"ping": 2, "pong": 2},
	}
	workloads.ComputeForwards(b)
	return b
}

// dxForwardBench: FUSION-Dx write-forwarding visibility. The producer
// dirties a small region the consumer reads immediately after; the
// trace-derived forward table pushes the dirty lines producer->consumer
// directly, and the consumer must observe the producer's final versions
// under the forwarded lease.
func dxForwardBench() *workloads.Benchmark {
	data := litmusRegion(0, 8)
	prog := &trace.Program{Name: "litmus-dx-forward", Phases: []trace.Phase{
		accelPhase("produce", 0, 1200, false, sweep(data, true, true, 2, 4)),
		accelPhase("consume", 1, 1200, false, sweep(data, true, false, 2, 4)),
		hostPhase("verify", sweep(data, true, false, 1, 4)),
	}}
	b := &workloads.Benchmark{
		Program:    prog,
		InputLines: append([]mem.VAddr(nil), data...),
		LeaseTimes: map[string]uint64{"produce": 1200, "consume": 1200},
		MLP:        map[string]int{"produce": 2, "consume": 2},
	}
	workloads.ComputeForwards(b)
	return b
}

// leaseExpiryBench: the lease-expiry boundary. AXC0 reads the region under
// a deliberately short lease with enough compute per iteration that its
// second pass finds every lease lapsed (self-invalidation, not a stale
// hit). AXC1 then writes the region — its write epochs stall at the L1X
// until AXC0's leases lapse — and AXC0 re-reads: across that boundary it
// must observe the new versions, never the expired copies it still holds.
func leaseExpiryBench() *workloads.Benchmark {
	data := litmusRegion(0, 8)
	prog := &trace.Program{Name: "litmus-lease-expiry", Phases: []trace.Phase{
		accelPhase("reader", 0, 60, true, sweep(data, true, false, 2, 64)),
		accelPhase("writer", 1, 60, false, sweep(data, false, true, 1, 4)),
		accelPhase("reread", 0, 60, false, sweep(data, true, false, 1, 4)),
		hostPhase("verify", sweep(data, true, false, 1, 4)),
	}}
	b := &workloads.Benchmark{
		Program:    prog,
		InputLines: append([]mem.VAddr(nil), data...),
		LeaseTimes: map[string]uint64{"reader": 60, "writer": 60, "reread": 60},
		MLP:        map[string]int{"reader": 1, "writer": 2, "reread": 2},
	}
	workloads.ComputeForwards(b)
	return b
}

// regressionDeadGrantBench reproduces the PR-1 dead-grant/dead-forward
// lease-lapse bug as a directed case: short leases plus deterministic link
// jitter and stall windows make grants and Dx forwards outlive their
// leases in transit. The fixed protocol releases the dead grant (plain
// writeback), re-requests, and converges; the pre-fix protocol deadlocked
// (caught here by the armed watchdog) or installed expired leases (caught
// by the checker).
func regressionDeadGrantBench() *workloads.Benchmark {
	data := litmusRegion(0, 8)
	aux := litmusRegion(1, 8)
	prog := &trace.Program{Name: "litmus-dead-grant", Phases: []trace.Phase{
		accelPhase("produce", 0, 48, false, sweep(data, true, true, 2, 4)),
		accelPhase("consume", 1, 48, false, pairSweep(data, aux, 4)),
		accelPhase("reread", 0, 48, false, sweep(data, true, false, 1, 4)),
		hostPhase("verify", sweep(data, true, false, 1, 4)),
	}}
	b := &workloads.Benchmark{
		Program:    prog,
		InputLines: append([]mem.VAddr(nil), data...),
		LeaseTimes: map[string]uint64{"produce": 48, "consume": 48, "reread": 48},
		MLP:        map[string]int{"produce": 2, "consume": 2, "reread": 2},
	}
	workloads.ComputeForwards(b)
	return b
}

// dxOrphanEpochBench is the random program that orphans a FUSION-Dx write
// epoch: a Dx forward satisfies an L0X's GetL whose request is still
// stalled at the L1X; the L1X replays it after the epoch closes, and the
// stale read grant consumes the L0X's newer GetW transaction, so the
// GetW's write-epoch grant reaches the L0X with no transaction to fill.
// Small regions make the lines shared enough to hit it.
func dxOrphanEpochBench() *workloads.Benchmark {
	p := workloads.DefaultRandomParams()
	p.MaxRegionKB, p.MaxPhases = 2, 3
	return workloads.Random(7518817352334205340, p)
}

// placementMigrationBench drives ADAPTIVE through all three placements for
// the same data classes a real pipeline mixes: a streaming store pass (low
// reuse -> uncached), a host-produced region read repeatedly (shared ->
// L0X), and a private multi-pass region that fits the scratchpad. A line's
// placement migrates between phases; every handoff must still observe the
// latest globally-ordered write, and the counter floors prove each
// placement actually ran.
func placementMigrationBench() *workloads.Benchmark {
	stream := litmusRegion(0, 8)
	shared := litmusRegion(1, 8)
	priv := litmusRegion(2, 8)
	all := append(append(append([]mem.VAddr(nil), stream...), shared...), priv...)
	prog := &trace.Program{Name: "litmus-placement-migration", Phases: []trace.Phase{
		accelPhase("stream", 0, 600, false, sweep(stream, false, true, 1, 4)),
		hostPhase("produce", sweep(shared, false, true, 1, 4)),
		accelPhase("consume", 0, 600, false, sweep(shared, true, false, 3, 4)),
		accelPhase("private", 0, 600, false, sweep(priv, true, true, 3, 4)),
		hostPhase("verify", sweep(all, true, false, 1, 4)),
	}}
	b := &workloads.Benchmark{
		Program:    prog,
		InputLines: append([]mem.VAddr(nil), stream...),
		LeaseTimes: map[string]uint64{"stream": 600, "consume": 600, "private": 600},
		MLP:        map[string]int{"stream": 2, "consume": 2, "private": 2},
	}
	workloads.ComputeForwards(b)
	return b
}

// deadlineBypassBench exercises the HYDRA deadline term: with a one-cycle
// deadline every fill completes past it, so every pure-load fetch must
// bypass allocation — served one-shot, strictly checked — and the
// bypass_deadline floor proves the term fired (the ignore-deadline mutant
// re-attributes every bypass to the reuse term and dies on the floor).
func deadlineBypassBench() *workloads.Benchmark {
	data := litmusRegion(0, 8)
	prog := &trace.Program{Name: "litmus-deadline-bypass", Phases: []trace.Phase{
		accelPhase("scan", 0, 600, false, sweep(data, true, false, 2, 4)),
		hostPhase("verify", sweep(data, true, false, 1, 4)),
	}}
	b := &workloads.Benchmark{
		Program:    prog,
		InputLines: append([]mem.VAddr(nil), data...),
		LeaseTimes: map[string]uint64{"scan": 600},
		MLP:        map[string]int{"scan": 2},
	}
	workloads.ComputeForwards(b)
	return b
}

// regressionFaultPlan is the deterministic perturbation that kills grants
// and forwards in transit: jitter beyond the 48-cycle lease plus full-
// probability stall windows.
var regressionFaultPlan = faults.Plan{
	Seed:           11,
	LinkJitterProb: 0.5,
	LinkJitterMax:  120,
	LinkStallProb:  1.0,
	LinkStallEvery: 512,
	LinkStallLen:   160,
}

// cases is the directed suite. Mutations reference cases by name.
func cases() []*Case {
	return []*Case{
		{
			Name: "mp",
			About: "message passing with host warm-up: host reads, AXC0 " +
				"RMWs, AXC1 reads, host verifies — every handoff must see " +
				"the latest write",
			Systems: allSystems,
			Build:   mpBench,
		},
		{
			Name: "handoff",
			About: "producer-consumer ping-pong: two AXCs alternately read " +
				"each other's output regions across task boundaries",
			Systems: allSystems,
			Build:   handoffBench,
		},
		{
			Name: "dx-forward",
			About: "FUSION-Dx write-forwarding visibility: consumer must " +
				"observe the producer's forwarded dirty lines at their " +
				"final versions",
			Systems: []systems.Kind{systems.FusionDx},
			Build:   dxForwardBench,
			Check: func(kind systems.Kind, res *systems.Result) error {
				return counterFloor(res, 1, "l0x.0.fwd_out")
			},
		},
		{
			Name: "lease-expiry",
			About: "lease-expiry boundary: expired L0X copies must " +
				"self-invalidate, and re-reads after a writer phase must " +
				"observe the new versions",
			Systems: fusionSystems,
			Build:   leaseExpiryBench,
			Check: func(kind systems.Kind, res *systems.Result) error {
				if err := counterFloor(res, 1, "l0x.0.self_invalidations"); err != nil {
					return err
				}
				if kind == systems.Hydra {
					// First-touch loads are low-reuse: the filter must have
					// bypassed allocation for them.
					return counterFloor(res, 1, "l1x.bypass_alloc")
				}
				return nil
			},
		},
		{
			Name: "dead-grant",
			About: "PR-1 regression: grants/forwards dying in transit " +
				"(delivery delay outlives the lease) must be released and " +
				"re-requested, preserving both liveness and values",
			Systems: []systems.Kind{systems.FusionDx},
			Build:   regressionDeadGrantBench,
			Tune: func(cfg *systems.Config) {
				plan := regressionFaultPlan
				cfg.Faults = &plan
				cfg.WatchdogCycles = 100_000
			},
			Check: func(kind systems.Kind, res *systems.Result) error {
				return counterFloor(res, 1,
					"l0x.0.dead_grants", "l0x.1.dead_grants",
					"l0x.0.dead_forwards", "l0x.1.dead_forwards")
			},
		},
		{
			Name: "dx-orphan-epoch",
			About: "a write-epoch grant reaching an L0X whose transaction a " +
				"stale replayed read grant already consumed must release " +
				"the epoch, or the line's next GetW waits forever (caught " +
				"by the armed watchdog)",
			Systems: []systems.Kind{systems.FusionDx},
			Build:   dxOrphanEpochBench,
			Tune: func(cfg *systems.Config) {
				cfg.WatchdogCycles = 100_000
				cfg.Paranoid = true
			},
		},
		{
			Name: "placement-migration",
			About: "ADAPTIVE placement migration: streaming stores go " +
				"uncached, a host-produced region reread thrice goes L0X, a " +
				"private multi-pass region goes scratchpad — every placement " +
				"handoff must observe the latest write, and each placement " +
				"must actually fire",
			Systems: []systems.Kind{systems.Adaptive},
			Build:   placementMigrationBench,
			Check: func(kind systems.Kind, res *systems.Result) error {
				for _, c := range []string{
					"adaptive.place_uncached",
					"adaptive.place_l0x",
					"adaptive.place_scratch",
				} {
					if err := counterFloor(res, 1, c); err != nil {
						return err
					}
				}
				return nil
			},
		},
		{
			Name: "deadline-bypass",
			About: "HYDRA deadline term: with a one-cycle task deadline every " +
				"pure-load fetch must bypass L1X allocation via the deadline " +
				"term, served one-shot and strictly checked",
			Systems: []systems.Kind{systems.Hydra},
			Build:   deadlineBypassBench,
			Tune: func(cfg *systems.Config) {
				cfg.DeadlineCycles = 1
			},
			Check: func(kind systems.Kind, res *systems.Result) error {
				return counterFloor(res, 1, "l1x.bypass_deadline")
			},
		},
	}
}

// Cases returns the directed suite.
func Cases() []*Case { return cases() }

// CaseNames lists the directed cases in suite order.
func CaseNames() []string {
	cs := cases()
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.Name
	}
	return out
}

func caseByName(name string) *Case {
	for _, c := range cases() {
		if c.Name == name {
			return c
		}
	}
	return nil
}
