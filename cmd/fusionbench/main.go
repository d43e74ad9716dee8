// Command fusionbench regenerates the paper's evaluation artifacts: every
// table and figure of Section 5, printed as the same rows and series the
// paper reports.
//
// Usage:
//
//	fusionbench                 # everything, in the paper's order
//	fusionbench -exp fig6b      # one artifact
//	fusionbench -list           # names of the regenerable artifacts
//	fusionbench -j 8            # bound the parallel sweep's worker pool
//	fusionbench -benchout BENCH_2026-08-05.json   # wall-clock/alloc report
//	fusionbench -allocbudget BENCH_BUDGET.json    # allocs/op regression gate
//
// The sweep is deterministic: output is byte-identical for any -j value.
// Absolute numbers will differ from the paper (this simulator is not the
// authors' macsim/GEMS testbed); see EXPERIMENTS.md for the side-by-side
// shape comparison.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"fusion"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment to run: "+strings.Join(fusion.ExperimentNames(), ", ")+", or all")
		list    = flag.Bool("list", false, "list experiments and exit")
		jsonOut = flag.Bool("json", false, "emit machine-readable JSON instead of tables")
		workers = flag.Int("j", 0, "parallel sweep workers (0: GOMAXPROCS; 1: sequential)")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file on exit")
		benchOt = flag.String("benchout", "", "time each artifact's regeneration and write a JSON report to this file")
		budget  = flag.String("allocbudget", "", "compare each artifact's allocs/op and bytes/op against this budget JSON; exit nonzero above tolerance")
	)
	flag.Parse()

	if *list {
		for _, n := range fusion.ExperimentNames() {
			fmt.Println(n)
		}
		return
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	var err error
	if *budget != "" {
		err = checkAllocBudget(*budget, *workers)
	} else if *benchOt != "" {
		err = writeBenchReport(*benchOt, *workers)
	} else {
		r := fusion.NewExperiments()
		r.SetWorkers(*workers)
		if *jsonOut {
			err = r.PrintJSON(os.Stdout, *exp)
		} else {
			err = r.Print(os.Stdout, *exp)
		}
	}
	if err != nil {
		if *cpuProf != "" {
			pprof.StopCPUProfile()
		}
		fatal(err)
	}

	if *memProf != "" {
		f, ferr := os.Create(*memProf)
		if ferr != nil {
			fatal(ferr)
		}
		runtime.GC()
		if ferr := pprof.WriteHeapProfile(f); ferr != nil {
			fatal(ferr)
		}
		f.Close()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// benchEntry is the regeneration cost of one artifact. One "op" is a full
// cold regeneration — a fresh runner, so nothing is memoized across
// entries; the final "all" entry regenerates every artifact through one
// shared runner, which is the fusionbench default path.
type benchEntry struct {
	Name        string `json:"name"`
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp uint64 `json:"allocs_per_op"`
	BytesPerOp  uint64 `json:"bytes_per_op"`
}

type benchReport struct {
	Date       string       `json:"date"`
	GoVersion  string       `json:"go_version"`
	GoMaxProcs int          `json:"gomaxprocs"`
	Workers    int          `json:"workers"`
	Entries    []benchEntry `json:"entries"`
}

// measureArtifact cold-regenerates one artifact (a fresh runner, so nothing
// is memoized across entries) and reports its wall clock and heap cost.
func measureArtifact(name string, workers int) (benchEntry, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	r := fusion.NewExperiments()
	r.SetWorkers(workers)
	if err := r.Print(io.Discard, name); err != nil {
		return benchEntry{}, fmt.Errorf("%s: %w", name, err)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	fmt.Fprintf(os.Stderr, "%-14s %12.1f ms\n", name, float64(elapsed.Nanoseconds())/1e6)
	return benchEntry{
		Name:        name,
		NsPerOp:     elapsed.Nanoseconds(),
		AllocsPerOp: after.Mallocs - before.Mallocs,
		BytesPerOp:  after.TotalAlloc - before.TotalAlloc,
	}, nil
}

// writeBenchReport measures every artifact's cold regeneration cost plus
// the full-set cost and writes the JSON report. Wall-clock numbers depend
// on -j and the host; the artifact bytes themselves never do.
func writeBenchReport(path string, workers int) error {
	report := benchReport{
		Date:       time.Now().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Workers:    workers,
	}
	for _, name := range append(fusion.ExperimentNames(), "all") {
		e, err := measureArtifact(name, workers)
		if err != nil {
			return err
		}
		report.Entries = append(report.Entries, e)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}

// budgetFile is the checked-in allocation budget (BENCH_BUDGET.json): per
// artifact, the allocs/op and bytes/op ceilings, with a shared headroom
// percentage. Wall clock is deliberately not budgeted (host-dependent).
type budgetFile struct {
	// TolerancePct is the allowed overshoot above each budgeted value
	// before the gate fails (absorbs run-to-run and Go-version noise).
	TolerancePct float64       `json:"tolerance_pct"`
	Entries      []budgetEntry `json:"entries"`
}

type budgetEntry struct {
	Name        string `json:"name"`
	AllocsPerOp uint64 `json:"allocs_per_op"`
	BytesPerOp  uint64 `json:"bytes_per_op"`
}

// checkAllocBudget regenerates every budgeted artifact and fails if its
// measured allocs/op or bytes/op exceed the budget by more than the
// tolerance. An improvement well under budget passes (with a hint to
// ratchet the budget down via -benchout).
func checkAllocBudget(path string, workers int) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var b budgetFile
	if err := json.Unmarshal(raw, &b); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if len(b.Entries) == 0 {
		return fmt.Errorf("%s: no budget entries", path)
	}
	// A budget row naming an artifact that no longer exists would silently
	// gate nothing; reject it so renames keep the budget honest.
	known := make(map[string]bool)
	for _, n := range append(fusion.ExperimentNames(), "all") {
		known[n] = true
	}
	for _, want := range b.Entries {
		if !known[want.Name] {
			return fmt.Errorf("%s: unknown artifact %q (valid: %s, all)",
				path, want.Name, strings.Join(fusion.ExperimentNames(), ", "))
		}
	}
	tol := 1 + b.TolerancePct/100
	var failures []string
	for _, want := range b.Entries {
		got, err := measureArtifact(want.Name, workers)
		if err != nil {
			return err
		}
		check := func(metric string, gotV, budgetV uint64) {
			limit := uint64(float64(budgetV) * tol)
			status := "ok"
			if gotV > limit {
				status = "FAIL"
				failures = append(failures, fmt.Sprintf(
					"%s %s: %d > %d (budget %d +%.0f%%)",
					want.Name, metric, gotV, limit, budgetV, b.TolerancePct))
			}
			fmt.Fprintf(os.Stderr, "  %-14s %-9s %14d budget %14d  %s\n",
				want.Name, metric, gotV, budgetV, status)
		}
		check("allocs/op", got.AllocsPerOp, want.AllocsPerOp)
		check("bytes/op", got.BytesPerOp, want.BytesPerOp)
	}
	if len(failures) > 0 {
		return fmt.Errorf("allocation budget exceeded:\n  %s\nregenerate the budget with -benchout after an intentional change",
			strings.Join(failures, "\n  "))
	}
	fmt.Fprintln(os.Stderr, "allocation budget: all artifacts within budget")
	return nil
}
