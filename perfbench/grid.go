package main

import (
	"fmt"
	"time"

	"fusion/internal/litmus"
	"fusion/internal/mem"
	"fusion/internal/systems"
	"fusion/internal/workloads"
)

// litmusPrograms is the number of workloads.Random programs litmus-random
// runs on every system per pass: program seeds 1 to litmusPrograms, at
// workloads.DefaultRandomParams, the generator settings of the repository's
// randomized litmus layer (litmus.RunRandom, whose TestRandomSuite runs
// seeds 1 to 5). 24 programs are 144 cells.
const litmusPrograms = 24

// gridCell is one (program, system) simulation with its golden image.
type gridCell struct {
	key   string
	bench *workloads.Benchmark
	want  map[mem.VAddr]uint64
	cfg   systems.Config
}

// paperGrid runs the 7 paper benchmarks on all 6 systems at DefaultConfig,
// one cell at a time in benchmark-major order with hooks off: the Fig. 6e
// grid. Its inputs are the paper's calibrated benchmarks, which do not
// depend on the seed; a fixed cell order also keeps the heap's peak, and so
// peak_rss_mb, from moving with the seed.
type paperGrid struct {
	cells []gridCell
}

func (g *paperGrid) setup(_ int64, tr *tracer) error {
	g.cells = g.cells[:0]
	for _, name := range workloads.Names() {
		id := tr.begin("workloads_gen", 0, 0, name)
		b := workloads.Get(name)
		want := systems.ExpectedVersions(b)
		tr.end(id)
		for _, k := range systems.Kinds() {
			g.cells = append(g.cells, gridCell{
				key: name + "/" + k.String(), bench: b, want: want, cfg: systems.DefaultConfig(k),
			})
		}
	}
	return nil
}

func (g *paperGrid) pass(tr *tracer, sm *speedMeter) (*passResult, error) {
	return runCells(g.cells, tr, sm, nil), nil
}

// litmusWatchdog is litmus-random's forward-progress window, the same as
// fusionsim's default: a cell that deadlocks fails within a million cycles
// with a dump naming the stuck component, instead of running out the
// 200M-cycle budget.
const litmusWatchdog = 1_000_000

// litmusRandom runs workloads.Random programs 1..programs on all 6 systems
// with the litmus Recorder attached, Paranoid on and the watchdog armed;
// every cell is checked by litmus.Check and against ExpectedVersions. Like
// paper-grid, its inputs do not depend on the workload seed: the program
// seeds are fixed, so the pass's work is the same on every run (drawing the
// programs from the workload seed spread a pass's work by 15-20% from seed
// to seed at this size).
type litmusRandom struct {
	programs int
	cells    []gridCell
}

func (l *litmusRandom) setup(_ int64, tr *tracer) error {
	l.cells = l.cells[:0]
	for i := 1; i <= l.programs; i++ {
		name := fmt.Sprintf("random%03d", i)
		id := tr.begin("workloads_gen", 0, 0, name)
		b := workloads.Random(int64(i), workloads.DefaultRandomParams())
		want := systems.ExpectedVersions(b)
		tr.end(id)
		for _, k := range systems.Kinds() {
			cfg := systems.DefaultConfig(k)
			cfg.Paranoid = true
			cfg.WatchdogCycles = litmusWatchdog
			l.cells = append(l.cells, gridCell{key: name + "/" + k.String(), bench: b, want: want, cfg: cfg})
		}
	}
	return nil
}

func (l *litmusRandom) pass(tr *tracer, sm *speedMeter) (*passResult, error) {
	return runCells(l.cells, tr, sm, litmus.NewRecorder), nil
}

// runCells runs each cell once through systems.Run, reporting each cell's
// time to sm (which may be nil). With newRecorder set,
// every cell records its observations and litmus.Check must find no
// violation. Every cell's final image must match sequential semantics.
func runCells(cells []gridCell, tr *tracer, sm *speedMeter, newRecorder func() *litmus.Recorder) *passResult {
	p := &passResult{counts: newCounts()}
	digests := make([]string, 0, len(cells))
	for _, c := range cells {
		p.attempted++
		cell := tr.nextCell()
		root := tr.begin("cell", 0, cell, c.key)
		t0 := time.Now()
		cfg := c.cfg
		var rec *litmus.Recorder
		if newRecorder != nil {
			rec = newRecorder()
			cfg.Observer = rec
		}
		id := tr.begin("systems_run", root, cell, c.key)
		res, err := systems.Run(c.bench, cfg)
		tr.end(id)
		if err != nil {
			// A failed cell's time counts like any other, and its error
			// text (a watchdog dump names the stuck component and cycle)
			// goes into the digest in place of its results.
			d := time.Since(t0)
			p.cells = append(p.cells, sample{c.key, float64(d.Nanoseconds()) / 1e6})
			tr.end(root)
			sm.worked(d)
			p.fail("%s: %v", c.key, err)
			digests = append(digests, fmt.Sprintf("%s error=%v\n", c.key, err))
			continue
		}
		var violations []litmus.Violation
		if rec != nil {
			id = tr.begin("litmus_check", root, cell, c.key)
			violations = litmus.Check(rec.Observations(), c.bench, res.LineMap)
			tr.end(id)
			p.counts.raw["litmus.observations"] += int64(len(rec.Observations()))
			p.counts.raw["litmus.violations"] += int64(len(violations))
		}
		badLines := checkFinal(res.FinalVersions, c.want)
		d := time.Since(t0)
		p.cells = append(p.cells, sample{c.key, float64(d.Nanoseconds()) / 1e6})
		tr.end(root)
		sm.worked(d)

		if err := cellError(badLines, len(c.want), violations); err != nil {
			p.fail("%s: %v", c.key, err)
		}
		p.simCycles += res.Cycles
		p.counts.addRun(c.bench, res)
		digests = append(digests, cellDigest(c.key, res))
	}
	p.digest = digestOf(digests)
	return p
}

// checkFinal counts the program lines whose final version differs from
// the sequential golden image.
func checkFinal(final, want map[mem.VAddr]uint64) int {
	bad := 0
	for va, v := range want {
		if final[va] != v {
			bad++
		}
	}
	return bad
}

// cellError turns a cell's check results into its failure, if any.
func cellError(badLines, lines int, violations []litmus.Violation) error {
	switch {
	case badLines > 0:
		return fmt.Errorf("%d of %d lines differ from sequential semantics", badLines, lines)
	case len(violations) > 0:
		return fmt.Errorf("%d litmus violations, first: %s", len(violations), violations[0])
	}
	return nil
}
