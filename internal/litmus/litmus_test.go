package litmus

import (
	"errors"
	"strings"
	"testing"

	"fusion/internal/sim"
	"fusion/internal/systems"
)

// TestDirectedSuite runs every directed case on each of its declared
// systems: no violations, no final-image mismatches, and every scenario
// assertion (the counter floors proving the exercised path) holds.
func TestDirectedSuite(t *testing.T) {
	for _, c := range Cases() {
		for _, kind := range c.Systems {
			t.Run(c.Name+"/"+kind.String(), func(t *testing.T) {
				rep, err := RunCase(c, kind, nil)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Observations == 0 {
					t.Fatal("no observations recorded")
				}
				for _, v := range rep.Violations {
					t.Errorf("violation: %s", v)
				}
				if rep.FinalMismatches > 0 {
					t.Errorf("%d final-image mismatches", rep.FinalMismatches)
				}
				if rep.ScenarioErr != nil {
					t.Errorf("scenario: %v", rep.ScenarioErr)
				}
			})
		}
	}
}

// watchdogTrip reports whether err is the forward-progress watchdog
// stopping a run: the kill of a LivenessKill mutant.
func watchdogTrip(err error) bool {
	var pe *sim.ProtocolError
	return errors.As(err, &pe) && pe.Component == "watchdog"
}

// TestMutationKill proves the harness detects every deliberate protocol
// break: each mutant's designated run must fail — by checker violations
// naming the agent, line, cycle, and expected write, by the case's
// scenario assertions (ScenarioKill mutants), or by the armed watchdog
// (LivenessKill mutants) — and the same (case, system) pair unmutated must
// be clean, so the kill is attributable to the mutation alone.
func TestMutationKill(t *testing.T) {
	for _, m := range Mutations() {
		t.Run(m.Name, func(t *testing.T) {
			c := caseByName(m.Case)
			if c == nil {
				t.Fatalf("mutation references unknown case %q", m.Case)
			}
			clean, err := RunCase(c, m.System, nil)
			if err != nil {
				t.Fatal(err)
			}
			if clean.Failed() {
				t.Fatalf("unmutated %s on %s already fails (violations %d, "+
					"mismatches %d, scenario %v) — kill not attributable",
					m.Case, m.System, len(clean.Violations),
					clean.FinalMismatches, clean.ScenarioErr)
			}
			mutated, err := RunCase(c, m.System, m.Apply)
			if m.LivenessKill {
				if !watchdogTrip(err) {
					t.Fatalf("mutant %s survived: %s on %s did not trip the "+
						"watchdog (err %v)", m.Name, m.Case, m.System, err)
				}
				t.Logf("killed by watchdog: %.120v", err)
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if m.ScenarioKill {
				if mutated.ScenarioErr == nil {
					t.Fatalf("mutant %s survived: %s on %s passed every "+
						"scenario assertion", m.Name, m.Case, m.System)
				}
				t.Logf("killed by scenario: %v", mutated.ScenarioErr)
				return
			}
			if len(mutated.Violations) == 0 {
				t.Fatalf("mutant %s survived: %s on %s recorded %d observations, "+
					"0 violations", m.Name, m.Case, m.System, mutated.Observations)
			}
			v := mutated.Violations[0]
			if v.Obs.Agent == "" {
				t.Errorf("violation does not name the agent: %s", v)
			}
			if v.Obs.Cycle == 0 {
				t.Errorf("violation does not carry a cycle: %s", v)
			}
			if v.Line == 0 {
				t.Errorf("violation does not name the line: %s", v)
			}
			if v.Expected == 0 {
				t.Errorf("violation does not name the expected write: %s", v)
			}
			if !strings.Contains(v.String(), v.Obs.Agent) {
				t.Errorf("String() omits the agent: %s", v)
			}
			t.Logf("killed by: %s", v)
		})
	}
}

// TestMutationCoverage is the kill-coverage report: every system in the
// registry must have at least one mutant whose designated run detects it,
// and no mutant may survive. A system without mutation-kill coverage has
// an unproven harness — the suite would certify its bugs as correct.
func TestMutationCoverage(t *testing.T) {
	killed := map[systems.Kind][]string{}
	for _, m := range Mutations() {
		c := caseByName(m.Case)
		if c == nil {
			t.Errorf("mutant %s references unknown case %q", m.Name, m.Case)
			continue
		}
		inSystems := false
		for _, k := range c.Systems {
			if k == m.System {
				inSystems = true
			}
		}
		if !inSystems {
			t.Errorf("mutant %s targets %s, but case %s does not run on it",
				m.Name, m.System, m.Case)
			continue
		}
		rep, err := RunCase(c, m.System, m.Apply)
		switch {
		case m.LivenessKill && watchdogTrip(err):
			killed[m.System] = append(killed[m.System], m.Name)
			continue
		case err != nil:
			t.Errorf("mutant %s: %v", m.Name, err)
			continue
		}
		if !rep.Failed() {
			t.Errorf("mutant %s SURVIVED on %s/%s", m.Name, m.Case, m.System)
			continue
		}
		killed[m.System] = append(killed[m.System], m.Name)
	}
	for _, kind := range systems.Kinds() {
		if len(killed[kind]) == 0 {
			t.Errorf("system %s has no killed mutants — harness unproven", kind)
			continue
		}
		t.Logf("%-8s killed: %s", kind, strings.Join(killed[kind], ", "))
	}
}

// TestMutationByName exercises the lookup used by cmd/fusionsim.
func TestMutationByName(t *testing.T) {
	if m := mutationByName("stale-forward"); m == nil || m.Case != "dx-forward" {
		t.Fatalf("mutationByName(stale-forward) = %+v", m)
	}
	if m := mutationByName("no-such"); m != nil {
		t.Fatalf("mutationByName(no-such) = %+v, want nil", m)
	}
}

// TestRandomSuite drives randomized workloads through every registered
// system with the checker attached: programs 1 to 5, plus the programs
// that once deadlocked FUSION-Dx on an orphaned write epoch (see the
// dx-orphan-epoch case).
func TestRandomSuite(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5,
		4032135550349762200, 4597876269881881885, 3405733071320072501,
		3009907945964993585, 1046922297177225637}
	for _, seed := range seeds {
		for _, kind := range systems.Kinds() {
			rep, err := RunRandom(seed, kind)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range rep.Violations {
				t.Errorf("seed %d on %s: %s", seed, kind, v)
			}
			if rep.FinalMismatches > 0 {
				t.Errorf("seed %d on %s: %d final mismatches",
					seed, kind, rep.FinalMismatches)
			}
		}
	}
}

// TestRunNamed covers the name dispatch used by cmd/fusionsim -litmus.
func TestRunNamed(t *testing.T) {
	reps, err := RunNamed("mp")
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != len(caseByName("mp").Systems) {
		t.Fatalf("mp produced %d reports", len(reps))
	}
	if _, err := RunNamed("bogus"); err == nil {
		t.Fatal("RunNamed(bogus) did not error")
	}
	all, err := RunNamed("all")
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, c := range Cases() {
		want += len(c.Systems)
	}
	if len(all) != want {
		t.Fatalf("all produced %d reports, want %d", len(all), want)
	}
	for _, rep := range all {
		if rep.Failed() {
			t.Errorf("%s on %s failed", rep.Case, rep.System)
		}
	}
}

// FuzzLitmusRandom fuzzes the randomized litmus layer: any seed must
// produce a violation-free trace and a golden final image on every
// registered system, ADAPTIVE and HYDRA included.
func FuzzLitmusRandom(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(42))
	f.Add(int64(-7))
	f.Fuzz(func(t *testing.T, seed int64) {
		for _, kind := range systems.Kinds() {
			rep, err := RunRandom(seed, kind)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed() {
				for _, v := range rep.Violations {
					t.Errorf("seed %d on %s: %s", seed, kind, v)
				}
				t.Fatalf("seed %d on %s: %d final mismatches, scenario %v",
					seed, kind, rep.FinalMismatches, rep.ScenarioErr)
			}
		}
	})
}
