package litmus

import (
	"fusion/internal/acc"
	"fusion/internal/mesi"
	"fusion/internal/scratchpad"
	"fusion/internal/systems"
)

// Mutation arms one deliberate protocol bug (behind a test-only knob) and
// names the directed case and system whose run must fail under it. The
// mutation-kill suite proves the checker's sensitivity: a harness that
// passes a broken protocol is worse than no harness, because it certifies
// bugs as correct.
type Mutation struct {
	Name  string
	About string
	// Case and System select the directed run that must detect the bug.
	Case   string
	System systems.Kind
	// Apply arms the bug on the run configuration.
	Apply func(*systems.Config)
	// ScenarioKill marks mutants detected by the case's scenario
	// assertions (counter floors) rather than by checker violations:
	// the bug changes which protocol path fires, not the values
	// observed, so the kill is a ScenarioErr.
	ScenarioKill bool
	// LivenessKill marks mutants detected by the case's armed watchdog:
	// the bug loses a message rather than a value, so the run stops with
	// a watchdog *sim.ProtocolError instead of finishing.
	LivenessKill bool
}

// Mutations returns the mutation-kill suite. Each entry pairs a deliberate
// protocol break with the directed litmus run that kills it.
func Mutations() []Mutation {
	return []Mutation{
		{
			Name: "skip-self-invalidate",
			About: "L0X serves load hits under a lapsed lease instead of " +
				"self-invalidating — the reader keeps data an unrelated " +
				"writer may have changed",
			Case:   "lease-expiry",
			System: systems.Fusion,
			Apply: func(cfg *systems.Config) {
				cfg.AccMutations = &acc.Mutations{SkipSelfInvalidate: true}
			},
		},
		{
			Name: "stale-forward",
			About: "FUSION-Dx forwards carry the version before the " +
				"producer's last write — a torn forward the consumer " +
				"silently computes on",
			Case:   "dx-forward",
			System: systems.FusionDx,
			Apply: func(cfg *systems.Config) {
				cfg.AccMutations = &acc.Mutations{StaleForward: true}
			},
		},
		{
			Name: "skip-sharer-invalidate",
			About: "the directory grants write ownership over a shared " +
				"line without invalidating the other sharers — they keep " +
				"reading the pre-write value",
			Case:   "mp",
			System: systems.Shared,
			Apply: func(cfg *systems.Config) {
				cfg.DirMutations = &mesi.DirMutations{SkipSharerInvalidate: true}
			},
		},
		{
			Name: "lost-store",
			About: "L0X store hits do not advance the line version — a " +
				"dropped write masked whenever a later store lands on the " +
				"same line",
			Case:   "mp",
			System: systems.Fusion,
			Apply: func(cfg *systems.Config) {
				cfg.AccMutations = &acc.Mutations{LostStore: true}
			},
		},
		{
			Name: "stale-fill",
			About: "scratchpad DMA-ins install one version behind the " +
				"coherent copy — the accelerator computes an entire task on " +
				"data the host already overwrote",
			Case:   "mp",
			System: systems.Scratch,
			Apply: func(cfg *systems.Config) {
				cfg.PadMutations = &scratchpad.Mutations{StaleFill: true}
			},
		},
		{
			Name: "drop-orphan-epoch",
			About: "an L0X drops a write-epoch grant that arrives with no " +
				"transaction waiting instead of releasing it — the L1X's " +
				"write lock on the line is never cleared",
			Case:         "dx-orphan-epoch",
			System:       systems.FusionDx,
			LivenessKill: true,
			Apply: func(cfg *systems.Config) {
				cfg.AccMutations = &acc.Mutations{DropOrphanEpoch: true}
			},
		},
		{
			Name: "sticky-placement",
			About: "ADAPTIVE latches the first placement decision forever — " +
				"profiling still runs but migration never happens, so the " +
				"L0X and scratchpad placements the case requires never fire",
			Case:         "placement-migration",
			System:       systems.Adaptive,
			ScenarioKill: true,
			Apply: func(cfg *systems.Config) {
				cfg.PolicyMutations = &systems.PolicyMutations{StickyPlacement: true}
			},
		},
		{
			Name: "ignore-deadline",
			About: "HYDRA's bypass filter drops the deadline term — " +
				"deadline-critical fetches are only bypassed when the reuse " +
				"term happens to agree, so the deadline floor reads zero",
			Case:         "deadline-bypass",
			System:       systems.Hydra,
			ScenarioKill: true,
			Apply: func(cfg *systems.Config) {
				cfg.AccMutations = &acc.Mutations{IgnoreDeadline: true}
			},
		},
	}
}

// mutationByName returns the named mutant, or nil.
func mutationByName(name string) *Mutation {
	for _, m := range Mutations() {
		if m.Name == name {
			mm := m
			return &mm
		}
	}
	return nil
}
