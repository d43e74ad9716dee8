package systems

// Hook purity and trace coverage: attaching the text consumer of the event
// stream (obs.Writer) must not change a single byte of a run's report, and
// the stream must carry at least one event of every kind the system's
// hierarchy exercises — each kind names one emission site, so a site that
// falls silent fails here.

import (
	"crypto/sha256"
	"testing"

	"fusion/internal/obs"
	"fusion/internal/workloads"
)

// kindTap counts events per kind and forwards each to the text consumer.
type kindTap struct {
	n [256]int
	w *obs.Writer
}

func (t *kindTap) Record(o obs.Observation) {
	t.n[o.Kind]++
	t.w.Record(o)
}

func TestObserverIsPure(t *testing.T) {
	const bench = "hist"
	with := func(base []obs.Kind, more ...obs.Kind) []obs.Kind {
		return append(append([]obs.Kind(nil), base...), more...)
	}
	common := []obs.Kind{obs.Load, obs.Store, obs.Epoch, obs.DirGetS, obs.DirPut}
	fusion := with(common, obs.Grant, obs.L0XMiss, obs.LeaseGrant, obs.EpochGrant,
		obs.SelfInvalidate, obs.SelfDowngrade, obs.Writeback, obs.L1XFetch,
		obs.HostFwd, obs.Relinquish, obs.DirGetM, obs.DirFwd)
	want := map[Kind][]obs.Kind{
		Scratch:  with(common, obs.Fill, obs.DirDMARead, obs.DirDMAWrite),
		Shared:   with(common, obs.DirGetM, obs.DirFwd),
		Fusion:   fusion,
		FusionDx: with(fusion, obs.DxForward),
		Adaptive: fusion,
		Hydra:    fusion,
	}
	for _, kind := range Kinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			bare, err := Run(workloads.Get(bench), DefaultConfig(kind))
			if err != nil {
				t.Fatalf("bare run: %v", err)
			}
			tap := &kindTap{w: &obs.Writer{W: sha256.New()}}
			cfg := DefaultConfig(kind)
			cfg.Observer = tap
			hooked, err := Run(workloads.Get(bench), cfg)
			if err != nil {
				t.Fatalf("observed run: %v", err)
			}
			if a, b := renderResult(bare), renderResult(hooked); a != b {
				t.Fatalf("attaching the observer changed the %v report:\nbare:\n%s\nobserved:\n%s",
					kind, a, b)
			}
			ks, ok := want[kind]
			if !ok {
				t.Fatalf("no expected event kinds listed for %v", kind)
			}
			for _, k := range ks {
				if tap.n[k] == 0 {
					t.Errorf("%v emitted no %s event", kind, k)
				}
			}
		})
	}
}
