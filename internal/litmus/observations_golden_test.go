package litmus

// Byte-identity golden for the litmus value stream: the recorded
// observation slice of random programs 1 to 5 on every registered system,
// and of every directed case on each of its systems, reduced to a sha256
// per run. A change to the hooks or to the recorder must leave every line
// of testdata/observations.golden as it is; a deliberate model change
// regenerates it with
//
//	go test ./internal/litmus -run TestObservationsGolden -update

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fusion/internal/obs"
	"fusion/internal/systems"
	"fusion/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/observations.golden from this run")

const observationsGoldenPath = "testdata/observations.golden"

// recordRun runs b (called name in failures) on kind with a fresh recorder
// attached (tune, if set, adjusts the config first) and returns the
// recorded stream.
func recordRun(t *testing.T, name string, b *workloads.Benchmark, kind systems.Kind,
	tune func(*systems.Config)) []obs.Observation {
	t.Helper()
	rec := NewRecorder()
	cfg := systems.DefaultConfig(kind)
	cfg.Observer = rec
	if tune != nil {
		tune(&cfg)
	}
	if _, err := systems.Run(b, cfg); err != nil {
		t.Fatalf("%s on %s: %v", name, kind, err)
	}
	return rec.Observations()
}

// hashObservations writes every field of every observation, one line each,
// into a sha256, so the digest names the stream and not its Go layout.
func hashObservations(h hash.Hash, stream []obs.Observation) {
	for _, o := range stream {
		fmt.Fprintf(h, "%d %s %#x %d %d %d %d %t %t\n", o.Cycle, o.Agent, o.Addr,
			o.Ver, o.Lease, o.Epoch, uint8(o.Kind), o.Phys, o.Delta)
	}
}

func TestObservationsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("litmus stream golden runs 30 random cells; skipped in -short")
	}
	var b strings.Builder
	line := func(name string, kind systems.Kind, stream []obs.Observation) {
		h := sha256.New()
		hashObservations(h, stream)
		fmt.Fprintf(&b, "%s/%s %d %x\n", name, kind, len(stream), h.Sum(nil))
	}
	for seed := int64(1); seed <= 5; seed++ {
		for _, kind := range systems.Kinds() {
			name := fmt.Sprintf("random-%d", seed)
			bench := workloads.Random(seed, workloads.DefaultRandomParams())
			line(name, kind, recordRun(t, name, bench, kind, nil))
		}
	}
	for _, c := range Cases() {
		for _, kind := range c.Systems {
			line(c.Name, kind, recordRun(t, c.Name, c.Build(), kind, c.Tune))
		}
	}
	got := b.String()
	if *updateGolden {
		if err := os.WriteFile(filepath.FromSlash(observationsGoldenPath), []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(filepath.FromSlash(observationsGoldenPath))
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	wl, gl := strings.Split(string(want), "\n"), strings.Split(got, "\n")
	for i := range gl {
		if i >= len(wl) || wl[i] != gl[i] {
			w := "<missing>"
			if i < len(wl) {
				w = wl[i]
			}
			t.Errorf("observation stream differs from golden:\n  got:  %s\n  want: %s", gl[i], w)
		}
	}
	if len(wl) > len(gl) {
		t.Errorf("golden has %d extra line(s) after %q", len(wl)-len(gl), gl[len(gl)-1])
	}
}
