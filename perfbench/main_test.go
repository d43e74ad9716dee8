package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"fusion/internal/litmus"
	"fusion/internal/mem"
	"fusion/internal/obs"
	"fusion/internal/service"
	"fusion/internal/systems"
	"fusion/internal/workloads"
)

// smallCells is a small litmus-random: two random programs on two systems.
func smallCells(t *testing.T) []gridCell {
	t.Helper()
	l := &litmusRandom{programs: 2}
	if err := l.setup(7, nil); err != nil {
		t.Fatal(err)
	}
	var cells []gridCell
	for _, c := range l.cells {
		if c.cfg.Kind == systems.Fusion || c.cfg.Kind == systems.Scratch {
			cells = append(cells, c)
		}
	}
	return cells
}

func TestCleanCellsPassAndDigestRepeats(t *testing.T) {
	cells := smallCells(t)
	a := runCells(cells, nil, nil, litmus.NewRecorder)
	b := runCells(cells, newTracer(), nil, litmus.NewRecorder)
	if len(a.failures) > 0 || len(b.failures) > 0 {
		t.Fatalf("clean cells failed: %v %v", a.failures, b.failures)
	}
	if a.digest != b.digest {
		t.Fatalf("digest differs between runs: %s vs %s", a.digest, b.digest)
	}
	if a.counts.raw["litmus.observations"] == 0 || a.simCycles == 0 {
		t.Fatalf("no work recorded: %+v", a.counts.raw)
	}
}

func TestFinalImageCheckFires(t *testing.T) {
	cells := smallCells(t)[:1]
	want := make(map[mem.VAddr]uint64, len(cells[0].want))
	for va, v := range cells[0].want {
		want[va] = v
	}
	for va := range want {
		want[va]++ // corrupt one line of the golden image
		break
	}
	cells[0].want = want
	p := runCells(cells, nil, nil, nil)
	if len(p.failures) != 1 || !strings.Contains(p.failures[0], "differ from sequential semantics") {
		t.Fatalf("final-image check did not fire: %v", p.failures)
	}
}

func TestLitmusCheckFires(t *testing.T) {
	c := smallCells(t)[0]
	rec := litmus.NewRecorder()
	cfg := c.cfg
	cfg.Observer = rec
	res, err := systems.Run(c.bench, cfg)
	if err != nil {
		t.Fatal(err)
	}
	trace := append([]obs.Observation(nil), rec.Observations()...)
	if v := litmus.Check(trace, c.bench, res.LineMap); len(v) != 0 {
		t.Fatalf("clean trace has violations: %v", v[0])
	}
	corrupted := false
	for i := range trace {
		if trace[i].Kind == obs.Load && trace[i].Ver > 1 {
			trace[i].Ver += 1000 // a load that read a value never written
			corrupted = true
			break
		}
	}
	if !corrupted {
		t.Fatal("no load to corrupt")
	}
	v := litmus.Check(trace, c.bench, res.LineMap)
	if err := cellError(0, len(c.want), v); err == nil || !strings.Contains(err.Error(), "litmus violations") {
		t.Fatalf("litmus check did not fire: %v", err)
	}
}

// fakeWorkload returns a different digest on every pass after the first.
type fakeWorkload struct{ n int }

func (f *fakeWorkload) setup(int64, *tracer) error { return nil }

func (f *fakeWorkload) pass(*tracer, *speedMeter) (*passResult, error) {
	f.n++
	digest := "same"
	if f.n > 1 {
		digest = "changed"
	}
	return &passResult{cells: []sample{{"c", 1}}, attempted: 1, digest: digest, counts: newCounts()}, nil
}

func TestDigestRepeatCheckFires(t *testing.T) {
	rs, err := measure(&fakeWorkload{}, 0, nil, "same")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.passes) != minPasses || len(rs.passes[1].failures) != 1 {
		t.Fatalf("digest change not flagged: %+v", rs.passes)
	}
}

// kernelWorkload reports enough work to its speed meter to run the kernel.
type kernelWorkload struct{}

func (kernelWorkload) setup(int64, *tracer) error { return nil }

func (kernelWorkload) pass(_ *tracer, sm *speedMeter) (*passResult, error) {
	sm.worked(meterEvery)
	return &passResult{cells: []sample{{"c", 1}}, attempted: 1, digest: "d", counts: newCounts()}, nil
}

// TestKernelTimeStaysOutOfPasses shows a pass's kernel runs taken out of
// its time and allocation, and the pass metered.
func TestKernelTimeStaysOutOfPasses(t *testing.T) {
	rs, err := measure(kernelWorkload{}, 0, nil, "d")
	if err != nil {
		t.Fatal(err)
	}
	kernel := refKernelMS / 1e3 / 5 // well below one kernel run
	if len(rs.factors) != len(rs.passes) || rs.wallS[0] > kernel || rs.allocBytes > 1<<20 {
		t.Fatalf("pass of 1 kernel run: wall %v s, %d bytes, factors %v", rs.wallS, rs.allocBytes, rs.factors)
	}
}

func TestScaledTimesDivideByPassFactor(t *testing.T) {
	rs := &runStats{
		passes: []*passResult{
			{cells: []sample{{"a", 10}}, hitsMS: []float64{1}, simCycles: 100},
			{cells: []sample{{"a", 30}}, hitsMS: []float64{4}, simCycles: 100},
		},
		wallS:   []float64{2, 6},
		factors: []float64{1, 2},
	}
	if got := rs.scaledWallS(); got[0] != 2 || got[1] != 3 {
		t.Errorf("scaled walls %v, want [2 3]", got)
	}
	if got := cellTimes(rs); len(got) != 1 || got[0] != 12.5 {
		t.Errorf("cell times %v, want [12.5] (median of 10 and 30/2)", got)
	}
	if got := hitTimes(rs); got[0] != 1 || got[1] != 2 {
		t.Errorf("hit times %v, want [1 2]", got)
	}
	if got := rs.perSecond(passCycles); math.Abs(got-(50+100.0/3)/2) > 1e-9 {
		t.Errorf("cycles per second %g, want the median of 50 and 33.3", got)
	}
}

// sweepFixture is a one-cell fusiond-sweep with a real cold reply.
func sweepFixture(t *testing.T) (*fusiondSweep, []byte) {
	t.Helper()
	spec := systems.Spec{Bench: "fft", System: "fusion"}
	b := workloads.Get("fft")
	want := systems.ExpectedVersions(b)
	f := &fusiondSweep{cells: []sweepCell{{key: "fft/fusion", wantDigest: versionsDigest(want), wantLines: len(want)}}}
	cell := service.BuildCell(context.Background(), spec)
	body, err := json.Marshal(service.SweepResponse{Cells: []*service.CellResult{cell}})
	if err != nil {
		t.Fatal(err)
	}
	return f, body
}

func TestSweepChecksFire(t *testing.T) {
	f, good := sweepFixture(t)
	ok := reply{ms: 10, status: http.StatusOK, body: good}
	if p := f.judge([]exchange{{cold: ok, warm: ok}}); len(p.failures) != 0 || len(p.hitsMS) != 1 || p.attempted != 2 {
		t.Fatalf("clean exchange: failures %v, %d hits, %d attempted", p.failures, len(p.hitsMS), p.attempted)
	}

	flipped := bytes.Replace(good, []byte(`"cycles":`), []byte(`"cycles":9`), 1)
	var wrongImage service.SweepResponse
	if err := json.Unmarshal(good, &wrongImage); err != nil {
		t.Fatal(err)
	}
	wrongImage.Cells[0].VersionsDigest = strings.Repeat("0", 64)
	badImage, _ := json.Marshal(wrongImage)
	wrongImage.Cells[0].Error = "protocol violation"
	errCell, _ := json.Marshal(wrongImage)
	with := func(body []byte, status int, err error) reply {
		return reply{ms: 1, status: status, body: body, err: err}
	}

	for _, tc := range []struct {
		name string
		x    exchange
		want string
	}{
		{"warm reply differs", exchange{cold: ok, warm: with(flipped, http.StatusOK, nil)}, "differs from the cold reply"},
		{"warm non-200", exchange{cold: ok, warm: with(nil, http.StatusTooManyRequests, nil)}, "cache-served request: HTTP 429"},
		{"warm transport error", exchange{cold: ok, warm: with(nil, 0, errors.New("connection reset"))}, "connection reset"},
		{"cold image wrong", exchange{cold: with(badImage, http.StatusOK, nil), warm: with(badImage, http.StatusOK, nil)}, "final image digest"},
		{"cold cell error", exchange{cold: with(errCell, http.StatusOK, nil), warm: with(errCell, http.StatusOK, nil)}, "cell error"},
		{"cold non-200", exchange{cold: with(nil, http.StatusServiceUnavailable, nil), warm: ok}, "cold request: HTTP 503"},
	} {
		p := f.judge([]exchange{tc.x})
		found := false
		for _, msg := range p.failures {
			found = found || strings.Contains(msg, tc.want)
		}
		if !found {
			t.Errorf("%s: want a failure containing %q, got %v", tc.name, tc.want, p.failures)
		}
	}
}

// TestFailedCellIsCountedAndDigested shows a cell whose systems.Run fails
// counting in the cell times and putting its error into the digest.
func TestFailedCellIsCountedAndDigested(t *testing.T) {
	cells := smallCells(t)[:1]
	clean := runCells(cells, nil, nil, nil)
	cells[0].cfg.WatchdogCycles = 3 // too short a window for any progress
	a, b := runCells(cells, nil, nil, nil), runCells(cells, nil, nil, nil)
	if len(a.failures) != 1 || len(a.cells) != 1 || a.attempted != 1 {
		t.Fatalf("failed cell: %d failures, %d cell times, %d attempted", len(a.failures), len(a.cells), a.attempted)
	}
	if a.digest == clean.digest || a.digest != b.digest {
		t.Fatalf("failed-cell digest %s (again %s) should differ from the clean %s and repeat", a.digest, b.digest, clean.digest)
	}
}

func TestTailPercentileLeavesTenSamples(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{20, 50}, {42, 75}, {144, 90}, {200, 95}, {1000, 99}, {100000, 99}} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"fusion/internal/acc.(*L1X).Tick":             "acc",
		"fusion/internal/sim.(*Engine).Step":          "sim",
		"fusion/internal/obs.Observer.Record":         "litmus",
		"fusion/internal/mem.VAddr.LineAddr":          "other",
		"runtime.mallocgc":                            "runtime",
		"internal/runtime/maps.(*Map).getWithKey":     "runtime",
		"net/http.(*conn).serve":                      "other",
		"fusion/internal/service.(*scheduler).worker": "service",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestProfileByLayer(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	b := workloads.Get("fft")
	for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
		if _, err := systems.Run(b, systems.DefaultConfig(systems.Fusion)); err != nil {
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	byLayer, err := profileByLayer(path)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, s := range byLayer {
		total += s
	}
	if total < 0.1 || byLayer["sim"]+byLayer["accel"]+byLayer["acc"] == 0 {
		t.Fatalf("profile split %v: want most of 0.5 s, some of it in the simulator", byLayer)
	}
}
