//go:build !race

package systems

// Byte-identity golden for the paper grid: every paper benchmark on every
// registered system at DefaultConfig, each cell's full renderResult report
// reduced to a sha256. A performance change to the simulator must leave
// every line of testdata/grid.golden as it is; a deliberate model change
// regenerates it with
//
//	go test ./internal/systems -run TestPaperGridGolden -update
//
// The grid takes several seconds even without the race detector (which
// slows it past the suite's budget), hence the build tag.

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fusion/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/grid.golden from this run")

const gridGoldenPath = "testdata/grid.golden"

func TestPaperGridGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("paper grid is slow; skipped in -short")
	}
	var b strings.Builder
	for _, name := range workloads.Names() {
		for _, k := range Kinds() {
			fmt.Fprintf(&b, "%s/%s %x\n", name, k, sha256.Sum256([]byte(runOnce(t, name, k))))
		}
	}
	got := b.String()
	if *updateGolden {
		if err := os.WriteFile(filepath.FromSlash(gridGoldenPath), []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(filepath.FromSlash(gridGoldenPath))
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
			t.Errorf("grid cell differs from golden:\n  got:  %s\n  want: %s", gl[i], w)
		}
	}
	if len(wl) > len(gl) {
		t.Errorf("golden has %d extra line(s) after %q", len(wl)-len(gl), gl[len(gl)-1])
	}
}
