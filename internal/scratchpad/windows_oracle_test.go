package scratchpad

// Windows reuses one flag map across the windows of an invocation. The
// version below is the one it replaced (three fresh maps per window); the
// test pins the new function to it on every accelerator phase of the paper
// benchmarks and of random programs, so window boundaries, transfer sets
// and their order cannot drift.

import (
	"fmt"
	"reflect"
	"testing"

	"fusion/internal/mem"
	"fusion/internal/trace"
	"fusion/internal/workloads"
)

func oracleWindows(inv *trace.Invocation, capacityLines int, live map[mem.VAddr]bool) []Window {
	var out []Window
	i := 0
	for i < len(inv.Iterations) {
		footprint := make(map[mem.VAddr]bool)
		written := make(map[mem.VAddr]bool)
		loaded := make(map[mem.VAddr]bool)
		var order []mem.VAddr
		j := i
		for ; j < len(inv.Iterations); j++ {
			it := &inv.Iterations[j]
			add := 0
			for _, a := range it.Loads {
				if !footprint[a.LineAddr()] {
					add++
				}
			}
			for _, a := range it.Stores {
				if !footprint[a.LineAddr()] {
					add++
				}
			}
			if len(footprint)+add > capacityLines && j > i {
				break
			}
			for _, a := range it.Loads {
				la := a.LineAddr()
				if !footprint[la] {
					footprint[la] = true
					order = append(order, la)
				}
				loaded[la] = true
			}
			for _, a := range it.Stores {
				la := a.LineAddr()
				if !footprint[la] {
					footprint[la] = true
					order = append(order, la)
				}
				if live[la] {
					loaded[la] = true
				}
				written[la] = true
			}
		}
		w := Window{Start: i, End: j}
		for _, la := range order {
			if loaded[la] {
				w.ReadSet = append(w.ReadSet, la)
			}
			if written[la] {
				w.WriteSet = append(w.WriteSet, la)
			}
		}
		out = append(out, w)
		i = j
	}
	return out
}

func TestWindowsMatchesOracle(t *testing.T) {
	var benches []*workloads.Benchmark
	for _, name := range workloads.Names() {
		benches = append(benches, workloads.Get(name))
	}
	for seed := int64(1); seed <= 24; seed++ {
		benches = append(benches, workloads.Random(seed, workloads.DefaultRandomParams()))
	}
	phases, split := 0, 0
	for _, b := range benches {
		// live grows the way the SCRATCH run grows it: preloaded inputs,
		// then every earlier phase's stores.
		live := make(map[mem.VAddr]bool)
		for _, va := range b.InputLines {
			live[va.LineAddr()] = true
		}
		for i := range b.Program.Phases {
			ph := &b.Program.Phases[i]
			if ph.Kind != trace.PhaseHost {
				phases++
				for _, kb := range []int{4, 8} {
					capLines := kb << 10 / mem.LineBytes
					for _, lv := range []map[mem.VAddr]bool{nil, live} {
						got := Windows(&ph.Inv, capLines, lv)
						want := oracleWindows(&ph.Inv, capLines, lv)
						if len(want) > 1 {
							split++
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s phase %d (%d KB, live=%v): windows differ\n got %v\nwant %v",
								b.Program.Name, i, kb, lv != nil, summarize(got), summarize(want))
						}
					}
				}
			}
			_, w := ph.Inv.Lines()
			for la := range w {
				live[la] = true
			}
		}
	}
	if phases == 0 || split == 0 {
		t.Fatalf("compared %d accelerator phases, %d split into several windows; want both > 0",
			phases, split)
	}
}

func summarize(ws []Window) string {
	s := ""
	for _, w := range ws {
		s += fmt.Sprintf("[%d,%d) r%d w%d; ", w.Start, w.End, len(w.ReadSet), len(w.WriteSet))
	}
	return s
}
