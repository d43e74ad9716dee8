// Command perfbench is the simulator's benchmark. It runs one named
// workload in a closed loop from a single process, calling each layer's
// public entry points from outside (workloads.Get/Random, systems.Run,
// litmus.Check, and fusiond's HTTP API through service.New), checks every
// output, and prints a report whose last line is one JSON object.
//
// With -trace 0 the JSON carries the end-to-end metrics of an untraced run.
// With -trace 1 the same untraced loop runs first, then a traced loop
// (spans kept in memory plus a CPU profile grouped by package), and the JSON
// carries the per-layer metrics and the tracing overhead.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 30 --trace 0
//
// See perfbench/README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"fusion/internal/service"
)

// setupRepeats is how many times the workload's set-up runs, each from a
// freshly collected heap; setup_s is the median. A litmus-random set-up
// takes about 10 ms, so a few repeats spread by a third from run to run.
const setupRepeats = 21

// minPasses is the least number of passes a run makes, so that every run
// can check that the simulated results repeat exactly.
const minPasses = 2

// workload is one benchmark workload: a fixed list of cells generated from
// the seed, run one pass at a time.
type workload interface {
	// setup generates the inputs (and, for the service, starts it up). It
	// is timed and may run several times; the last call's inputs are used.
	setup(seed int64, tr *tracer) error
	// pass runs every cell once and checks each output. With sm set, it
	// reports its measured work to sm between cells.
	pass(tr *tracer, sm *speedMeter) (*passResult, error)
}

// sample is the host time of one cell (or one request).
type sample struct {
	key string
	ms  float64
}

// passResult is one pass over every cell of a workload.
type passResult struct {
	cells     []sample
	hitsMS    []float64 // fusiond-sweep: the cache-served replies
	simCycles uint64
	digest    string
	attempted int
	failures  []string
	counts    *counts
	svc       *service.Statsz // fusiond-sweep only
}

func (p *passResult) fail(format string, args ...any) {
	p.failures = append(p.failures, fmt.Sprintf(format, args...))
}

// runStats is one timed loop of passes.
type runStats struct {
	passes []*passResult
	wallS  []float64 // per pass, raw, kernel runs excluded
	// factors are the passes' speed factors (untraced loops only).
	factors    []float64
	totalS     float64 // raw, kernel runs included
	allocBytes uint64  // allocated by the passes, kernel runs excluded
}

// factor is the speed factor pass i's host times are divided by (1 when
// the loop did not meter its speed).
func (r *runStats) factor(i int) float64 {
	if len(r.factors) == 0 {
		return 1
	}
	return r.factors[i]
}

// scaledWallS are the pass times scaled to the reference speed.
func (r *runStats) scaledWallS() []float64 {
	out := make([]float64, len(r.wallS))
	for i, w := range r.wallS {
		out[i] = w / r.factor(i)
	}
	return out
}

// perSecond is the median over the passes of a pass's amount (cells,
// cycles) per scaled second: one slow pass does not move it.
func (r *runStats) perSecond(amount func(*passResult) float64) float64 {
	rates := make([]float64, len(r.passes))
	for i, w := range r.scaledWallS() {
		rates[i] = amount(r.passes[i]) / w
	}
	return median(rates)
}

func passCells(p *passResult) float64  { return float64(len(p.cells)) }
func passCycles(p *passResult) float64 { return float64(p.simCycles) }

func (r *runStats) simCycles() uint64 {
	var n uint64
	for _, p := range r.passes {
		n += p.simCycles
	}
	return n
}

func (r *runStats) cells() int {
	n := 0
	for _, p := range r.passes {
		n += len(p.cells)
	}
	return n
}

// measure runs passes until the next one would end after seconds (at least
// minPasses). Every pass's digest must equal want: a mismatch is a failure.
// An untraced loop (tr nil) meters the host's speed before, during and
// after every pass; a traced loop does not, so that the kernel stays out of
// its CPU profile.
func measure(w workload, seconds float64, tr *tracer, want string) (*runStats, error) {
	runtime.GC()
	var before, after runtime.MemStats
	rs := &runStats{}
	start := time.Now()
	for {
		var sm *speedMeter
		var kernelS float64
		var kernelAlloc uint64
		if tr == nil {
			sm = &speedMeter{}
			sm.boundary()
			kernelS, kernelAlloc = sm.kernelS, sm.allocBytes
		}
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		p, err := w.pass(tr, sm)
		if err != nil {
			return nil, err
		}
		wall := time.Since(t0).Seconds()
		runtime.ReadMemStats(&after)
		alloc := after.TotalAlloc - before.TotalAlloc
		if sm != nil {
			wall -= sm.kernelS - kernelS
			alloc -= sm.allocBytes - kernelAlloc
			sm.boundary()
			rs.factors = append(rs.factors, sm.factor())
		}
		rs.wallS = append(rs.wallS, wall)
		rs.allocBytes += alloc
		if p.digest != want {
			p.fail("pass %d: simulated-result digest %s differs from %s", len(rs.passes), p.digest, want)
		}
		rs.passes = append(rs.passes, p)
		elapsed := time.Since(start).Seconds()
		if len(rs.passes) >= minPasses && elapsed+median(rs.wallS) > seconds {
			break
		}
	}
	rs.totalS = time.Since(start).Seconds()
	return rs, nil
}

func newWorkload(name string, outDir string) workload {
	switch name {
	case "paper-grid":
		return &paperGrid{}
	case "litmus-random":
		return &litmusRandom{programs: litmusPrograms}
	case "fusiond-sweep":
		return &fusiondSweep{dir: outDir}
	}
	return nil
}

func main() {
	workloadName := flag.String("workload", "", "workload: paper-grid, litmus-random or fusiond-sweep")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 30, "how long one timed loop measures")
	traceOn := flag.Int("trace", 0, "1: run the traced loop and print per-layer metrics")
	outDir := flag.String("out", ".bench_build/perfbench", "directory for spans, profiles and the service cache")
	flag.Parse()
	if err := run(os.Stdout, *workloadName, *seed, *seconds, *traceOn == 1, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(out io.Writer, name string, seed int64, seconds float64, traced bool, outDir string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	w := newWorkload(name, outDir)
	if w == nil {
		return fmt.Errorf("unknown workload %q (have paper-grid, litmus-random, fusiond-sweep)", name)
	}

	// Each set-up is scaled by kernel runs just before it.
	setup := make([]float64, 0, setupRepeats)
	setupRaw := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		sm := &speedMeter{}
		sm.boundary()
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(seed, nil); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		raw := time.Since(t0).Seconds()
		setupRaw = append(setupRaw, raw)
		setup = append(setup, raw/sm.factor())
	}

	// A traced run splits its time between the untraced baseline and the
	// traced loop, so that both kinds of run take about seconds.
	loop := seconds
	if traced {
		loop = seconds / 2
	}
	// The warm-up pass grows the heap and fixes the digest every later pass
	// must repeat; its time is not measured.
	warm, err := w.pass(nil, nil)
	if err != nil {
		return err
	}
	base, err := measure(w, loop, nil, warm.digest)
	if err != nil {
		return err
	}
	rep := &report{name: name, seed: seed, warm: warm, base: base, setupS: median(setup), setupRawS: median(setupRaw)}
	if traced {
		tr := newTracer()
		if err := w.setup(seed, tr); err != nil {
			return fmt.Errorf("traced setup: %w", err)
		}
		prefix := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", name, seed))
		prof, err := os.Create(prefix + ".cpu.pprof")
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(prof); err != nil {
			prof.Close()
			return err
		}
		rep.traced, err = measure(w, loop, tr, warm.digest)
		pprof.StopCPUProfile()
		if cerr := prof.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		if rep.hostS, err = profileByLayer(prefix + ".cpu.pprof"); err != nil {
			return fmt.Errorf("reading CPU profile: %w", err)
		}
		rep.spans = tr
		if err := tr.write(prefix + ".spans.jsonl"); err != nil {
			return err
		}
		rep.spansPath, rep.profPath = prefix+".spans.jsonl", prefix+".cpu.pprof"
	}
	return rep.print(out)
}

// metric is one named value of the final JSON line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type report struct {
	name      string
	seed      int64
	setupS    float64 // scaled
	setupRawS float64
	warm      *passResult
	base      *runStats
	traced    *runStats // nil unless -trace 1
	hostS     map[string]float64
	spans     *tracer
	spansPath string
	profPath  string
}

// endToEnd computes the untraced run's end-to-end metrics. Host times are
// scaled to the reference speed.
func (r *report) endToEnd() map[string]metric {
	b := r.base
	cellMS := cellTimes(b)
	p := tailPercentile(len(cellMS))
	return map[string]metric{
		"setup_s":           {r.setupS, "s"},
		"wall_s":            {median(b.scaledWallS()), "s"},
		"cells_per_s":       {b.perSecond(passCells), "1/s"},
		"sim_cycles_per_s":  {b.perSecond(passCycles), "cycles/s"},
		"cell_ms_p50":       {percentile(cellMS, 50), "ms"},
		"cell_ms_tail":      {percentile(cellMS, p), "ms"},
		"alloc_mb_per_cell": {float64(b.allocBytes) / 1e6 / float64(b.cells()), "MB"},
		"peak_rss_mb":       {peakRSSMB(), "MB"},
	}
}

// perLayer computes the traced run's per-layer metrics.
func (r *report) perLayer() map[string]metric {
	b, t := r.base, r.traced
	m := r.base.passes[0].counts.metrics()
	m["sim_cycles"] = metric{float64(b.passes[0].simCycles), "cycles"}
	if c := b.simCycles(); c > 0 {
		m["sim.host_ns_per_cycle"] = metric{1e9 / b.perSecond(passCycles), "ns"}
	} else {
		m["sim.host_ns_per_cycle"] = metric{0, "ns"}
	}
	for _, layer := range hostLayers {
		m["host_s."+layer] = metric{r.hostS[layer] / float64(len(t.passes)), "s"}
	}
	for _, name := range spanNames {
		m["span_ms."+name] = metric{median(r.spans.durationsMS(name)), "ms"}
	}
	m["trace.overhead_s"] = metric{median(t.wallS) - median(b.wallS), "s"}
	hits := hitTimes(b)
	m["service.hit_ms_p50"] = metric{percentile(hits, 50), "ms"}
	m["service.hit_ms_tail"] = metric{percentile(hits, tailPercentile(len(hits))), "ms"}
	for k, v := range serviceMetrics(b) {
		m[k] = v
	}
	return m
}

func (r *report) failures() (attempted int, failed []string) {
	attempted, failed = r.warm.attempted, append(failed, r.warm.failures...)
	for _, rs := range []*runStats{r.base, r.traced} {
		if rs == nil {
			continue
		}
		for _, p := range rs.passes {
			attempted += p.attempted
			failed = append(failed, p.failures...)
		}
	}
	return attempted, failed
}

func (r *report) print(out io.Writer) error {
	attempted, failed := r.failures()
	b := r.base
	cellMS, hits := cellTimes(b), hitTimes(b)
	fmt.Fprintf(out, "perfbench workload=%s seed=%d\n", r.name, r.seed)
	fmt.Fprintf(out, "env: nproc=%d GOMAXPROCS=%d go=%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())
	fmt.Fprintf(out, "runs: 1 warm-up pass, then %d untraced passes of %d cells in %.3f s", len(b.passes), len(b.passes[0].cells), b.totalS)
	if r.traced != nil {
		fmt.Fprintf(out, "; %d traced passes in %.3f s", len(r.traced.passes), r.traced.totalS)
	}
	fmt.Fprintln(out)
	fmt.Fprintln(out, "model: not validated against hardware; EXPERIMENTS.md compares shapes only, so no error figure is given")
	fmt.Fprintf(out, "digest: %s (cycles, energy bits and stats of every cell; repeated by every pass)\n", r.warm.digest)
	fmt.Fprintf(out, "tail: cell_ms_tail is p%g of %d samples", tailPercentile(len(cellMS)), len(cellMS))
	if len(hits) > 0 {
		fmt.Fprintf(out, "; hit_ms_tail is p%g of %d samples", tailPercentile(len(hits)), len(hits))
	}
	fmt.Fprintln(out)
	fmt.Fprintf(out, "failed_ratio: %d/%d = %g\n", len(failed), attempted, float64(len(failed))/float64(max(attempted, 1)))
	for i, f := range failed {
		if i == 10 {
			fmt.Fprintf(out, "  ... %d more failures\n", len(failed)-i)
			break
		}
		fmt.Fprintln(out, "  FAIL", f)
	}
	fmt.Fprintf(out, "sim_cycles: %d per pass\n", b.passes[0].simCycles)
	fmt.Fprintf(out, "speed: pass factors %.3f-%.3f, median %.3f (reference kernel %.3f ms, nominal %.1f ms); host times below are scaled by them\n",
		percentile(b.factors, 0), percentile(b.factors, 100), median(b.factors), median(b.factors)*refKernelMS, refKernelMS)
	fmt.Fprintf(out, "raw: wall_s %.6f s, cells_per_s %.4f, setup_s %.6f s (unscaled)\n",
		median(b.wallS), float64(b.cells())/sum(b.wallS), r.setupRawS)
	fmt.Fprint(out, "passes (raw s / factor):")
	for i, w := range b.wallS {
		fmt.Fprintf(out, " %.4f/%.4f", w, b.factor(i))
	}
	fmt.Fprintln(out)
	if len(hits) > 0 {
		fmt.Fprintf(out, "hit_ms_p50: %.4f ms  hit_ms_tail: %.4f ms\n",
			percentile(hits, 50), percentile(hits, tailPercentile(len(hits))))
	}
	metrics := r.endToEnd()
	if r.traced != nil {
		fmt.Fprintf(out, "spans: %s\nprofile: %s\n", r.spansPath, r.profPath)
		metrics = r.perLayer()
	}
	names := make([]string, 0, len(metrics))
	for k := range metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "%-28s %16.6f %s\n", k, metrics[k].Value, metrics[k].Unit)
	}
	res := result{
		Correct:   len(failed) == 0,
		Attempted: max(attempted, 1),
		Failed:    len(failed),
		Metrics:   metrics,
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// cellTimes returns one scaled host time per cell. Every workload repeats
// the same cells every pass, so each cell contributes its median over
// passes and the sample count is the number of cells.
func cellTimes(rs *runStats) []float64 {
	byKey := make(map[string][]float64)
	var keys []string
	for i, p := range rs.passes {
		for _, s := range p.cells {
			if _, ok := byKey[s.key]; !ok {
				keys = append(keys, s.key)
			}
			byKey[s.key] = append(byKey[s.key], s.ms/rs.factor(i))
		}
	}
	out := make([]float64, 0, len(keys))
	for _, k := range keys {
		out = append(out, median(byKey[k]))
	}
	return out
}

// hitTimes returns the scaled host time of every cache-served request.
func hitTimes(rs *runStats) []float64 {
	var all []float64
	for i, p := range rs.passes {
		for _, ms := range p.hitsMS {
			all = append(all, ms/rs.factor(i))
		}
	}
	return all
}

// tailPercentile is the highest of p75, p90, p95 and p99 that leaves at
// least ten samples beyond it (p50 below 40 samples).
func tailPercentile(n int) float64 {
	for _, p := range []float64{99, 95, 90, 75} {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}

// percentile interpolates linearly between closest ranks; 0 for no data.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func sum(xs []float64) float64 {
	var n float64
	for _, x := range xs {
		n += x
	}
	return n
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// commit is the VCS revision the binary was built from, when the build saw
// one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	switch {
	case rev == "":
		return "unknown (not built in a git checkout)"
	case dirty:
		return rev + "+dirty"
	}
	return rev
}
