package systems

// A/B validation of the engine's quiescence fast-forward: a full system
// run with idle-skip enabled must produce a byte-identical report to the
// same run forced to step every cycle. Cycle counts, stats, energy, and
// the final memory image all participate via renderResult.

import (
	"errors"
	"strings"
	"testing"

	"fusion/internal/mesi"
	"fusion/internal/sim"
	"fusion/internal/workloads"
)

func TestIdleSkipInvariant(t *testing.T) {
	const bench = "adpcm"
	for _, kind := range []Kind{Scratch, Shared, Fusion, FusionDx} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			skipped, err := Run(workloads.Get(bench), DefaultConfig(kind))
			if err != nil {
				t.Fatalf("skip run: %v", err)
			}
			cfg := DefaultConfig(kind)
			cfg.NoIdleSkip = true
			stepped, err := Run(workloads.Get(bench), cfg)
			if err != nil {
				t.Fatalf("stepped run: %v", err)
			}
			// The configs differ only in the skip knob, which is not part
			// of the simulated machine; blank it before comparing.
			skipped.Config.NoIdleSkip = false
			stepped.Config.NoIdleSkip = false
			a, b := renderResult(skipped), renderResult(stepped)
			if a != b {
				t.Fatalf("idle-skip changed the %v report:\nskip:\n%s\nstep:\n%s",
					kind, a, b)
			}
		})
	}
}

// TestIdleSkipWatchdogTrip wedges a FUSION run with a tiny watchdog window
// and asserts the watchdog still fires (the fast-forward is capped at the
// trip deadline rather than jumping over it).
func TestIdleSkipWatchdogTrip(t *testing.T) {
	cfg := DefaultConfig(Fusion)
	cfg.WatchdogCycles = 1 // trips during the first legitimate quiet stretch
	_, err := Run(workloads.Get("adpcm"), cfg)
	var pe *sim.ProtocolError
	if !errors.As(err, &pe) || pe.Component != "watchdog" {
		t.Fatalf("expected a watchdog trip with a 1-cycle window, got %v", err)
	}
}

// TestIdleSkipParanoidCadence: the paranoid checker is idle to the
// fast-forward and pins each sweep cycle as a wake deadline, so a Paranoid
// run must report byte-identically with idle-skip on and off, and a
// violation must be caught at the same cycle with the same text.
func TestIdleSkipParanoidCadence(t *testing.T) {
	runBoth := func(t *testing.T, b *workloads.Benchmark, kind Kind, tune func(*Config)) (skip, step string) {
		t.Helper()
		out := [2]string{}
		for i, noSkip := range []bool{false, true} {
			cfg := DefaultConfig(kind)
			cfg.Paranoid = true
			cfg.NoIdleSkip = noSkip
			if tune != nil {
				tune(&cfg)
			}
			res, err := Run(b, cfg)
			if err != nil {
				out[i] = "error: " + err.Error()
				continue
			}
			res.Config.NoIdleSkip = false
			out[i] = renderResult(res)
		}
		return out[0], out[1]
	}

	for _, kind := range Kinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			for _, b := range []*workloads.Benchmark{
				workloads.Get("adpcm"),
				workloads.Random(3, workloads.DefaultRandomParams()),
			} {
				skip, step := runBoth(t, b, kind, nil)
				if strings.HasPrefix(skip, "error: ") {
					t.Fatalf("%s: paranoid run failed: %s", b.Program.Name, skip)
				}
				if skip != step {
					t.Fatalf("%s: idle-skip changed the paranoid report:\nskip:\n%s\nstep:\n%s",
						b.Program.Name, skip, step)
				}
			}
		})
	}

	// A mutant the MESI sweep catches: the directory grants M without
	// invalidating the other sharers.
	mutant := func(cfg *Config) {
		cfg.DirMutations = &mesi.DirMutations{SkipSharerInvalidate: true}
	}
	for _, kind := range []Kind{Shared, Adaptive} {
		skip, step := runBoth(t, workloads.Random(5, workloads.DefaultRandomParams()), kind, mutant)
		if !strings.HasPrefix(skip, "error: invariant violated at cycle ") {
			t.Fatalf("%v: paranoid missed the mutant: %.200s", kind, skip)
		}
		if skip != step {
			t.Fatalf("%v: idle-skip changed the catch:\nskip: %s\nstep: %s", kind, skip, step)
		}
	}
}

// TestParanoidCheckerWakesEverySweep: with nothing else to do the engine
// fast-forwards from sweep to sweep, and it must land on every multiple of
// the interval; once a violation is latched the checker stops holding the
// clock.
func TestParanoidCheckerWakesEverySweep(t *testing.T) {
	eng := sim.NewEngine()
	c := &invariantChecker{interval: 64}
	eng.Register(c)
	eng.Schedule(1000, func(uint64) {}) // a stray event between sweeps
	const cycles = 64 * 100
	eng.Run(cycles, nil)
	if c.sweeps != cycles/64 {
		t.Fatalf("%d sweeps in %d cycles, want %d", c.sweeps, cycles, cycles/64)
	}
	for _, now := range []uint64{0, 1, 63, 64, 65, 6400} {
		at, ok := c.WakeAt(now)
		if want := (now + 63) / 64 * 64; !ok || at != want {
			t.Fatalf("WakeAt(%d) = %d,%v, want %d,true", now, at, ok, want)
		}
	}
	c.violation = "latched"
	if _, ok := c.WakeAt(65); ok {
		t.Fatal("a latched checker still imposes a deadline")
	}
}
