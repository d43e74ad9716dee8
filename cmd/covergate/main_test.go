package main

import (
	"strings"
	"testing"
)

// TestGateGone gates the fixture profile against a baseline that still
// lists a package the profile no longer has: the gate must fail on it by
// name, while the packages still present pass.
func TestGateGone(t *testing.T) {
	got, err := packageCoverage("testdata/profile.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got["fusion/internal/a"] != 50 || got["fusion/internal/b"] != 100 {
		t.Fatalf("profile parsed as %v", got)
	}
	base, err := readBaseline("testdata/baseline")
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if failed := gate(&out, got, base, 2); failed != 1 {
		t.Fatalf("gate failed %d package(s), want 1:\n%s", failed, out.String())
	}
	for _, want := range []string{
		"GONE  fusion/internal/gone",
		"remove it from the baseline",
		"ok    fusion/internal/a",
		"ok    fusion/internal/b",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("gate output lacks %q:\n%s", want, out.String())
		}
	}
}

// TestGateDropAndNew covers the other verdicts: a drop beyond the
// tolerance fails, one within it passes, and a package new since the
// baseline is reported without failing.
func TestGateDropAndNew(t *testing.T) {
	got := map[string]float64{"p/drop": 80, "p/within": 89, "p/new": 10}
	base := map[string]float64{"p/drop": 85, "p/within": 90}
	var out strings.Builder
	if failed := gate(&out, got, base, 2); failed != 1 {
		t.Fatalf("gate failed %d package(s), want 1:\n%s", failed, out.String())
	}
	for _, want := range []string{"FAIL  p/drop", "ok    p/within", "NEW   p/new"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("gate output lacks %q:\n%s", want, out.String())
		}
	}
}
