package obs

import (
	"strings"
	"testing"
)

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		Load:        "LD",
		Store:       "ST",
		Fill:        "FILL",
		Grant:       "GRANT",
		Epoch:       "EPOCH",
		L0XMiss:     "l0x-miss",
		Relinquish:  "relinquish",
		DirGetS:     "dir-gets",
		DirDMAWrite: "dir-dma-write",
	}
	for k, w := range want {
		if k.String() != w {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), w)
		}
	}
	if len(kindNames) != int(DirDMAWrite)+1 {
		t.Errorf("%d kind names for %d kinds", len(kindNames), DirDMAWrite+1)
	}
	if got := Kind(200).String(); got != "Kind(200)" {
		t.Errorf("out-of-range kind = %q", got)
	}
}

func ev(k Kind, cycle uint64) Observation {
	return Observation{Cycle: cycle, Agent: "l1x", Kind: k, Addr: 0x1000}
}

func TestEventString(t *testing.T) {
	for _, tc := range []struct {
		o    Observation
		want []string
	}{
		{Observation{Cycle: 42, Agent: "l1x", Kind: LeaseGrant, Addr: 0x40, Peer: 1, Arg: 542},
			[]string{"42", "l1x", "lease-grant", "0x40", "axc1 until 542"}},
		{Observation{Agent: "l0x.0", Kind: L0XMiss, Write: true}, []string{"l0x-miss", "GetW"}},
		{Observation{Agent: "l1x", Kind: L1XFetch, Arg: 0x2000}, []string{"pa=0x2000"}},
		{Observation{Agent: "dir", Kind: DirFwd, Peer: 2, Arg: 1, Write: true},
			[]string{"dir-fwd", "FwdGetM to agent2 for agent1"}},
		{Observation{Agent: "l1x", Kind: Relinquish, Peer: 1, Write: true}, []string{"to agent1 dirty=true"}},
		{Observation{Agent: "hostl1", Kind: Load, Ver: 3}, []string{"LD", "v3 lease=0"}},
		{Observation{Cycle: 9, Kind: Epoch, Epoch: 2}, []string{"EPOCH", "epoch 2"}},
		{Observation{Agent: "l0x.0", Kind: DxForward, Peer: 2, Arg: 900}, []string{"to axc2 lease=900"}},
		{Observation{Agent: "l1x", Kind: WLockStall, Peer: 3}, []string{"wlock-stall", "axc3 GetL"}},
		{Observation{Agent: "l1x", Kind: HostFwd, Write: true}, []string{"host-fwd", "FwdGetM"}},
		{Observation{Agent: "l1x", Kind: InvParked, Arg: 77}, []string{"inv-parked", "until GTIME 77"}},
		{Observation{Agent: "dir", Kind: DirDMARead, Peer: 3}, []string{"dir-dma-read", "from agent3"}},
	} {
		s := tc.o.String()
		for _, want := range tc.want {
			if !strings.Contains(s, want) {
				t.Errorf("String() = %q missing %q", s, want)
			}
		}
	}
	if s := (Observation{Kind: Writeback}).String(); strings.HasSuffix(s, " ") {
		t.Errorf("operand-free kind has trailing space: %q", s)
	}
}

func TestWriterCapsOutput(t *testing.T) {
	var sb strings.Builder
	w := &Writer{W: &sb, Max: 2}
	for i := 0; i < 5; i++ {
		w.Record(ev(Writeback, uint64(i)))
	}
	out := sb.String()
	if strings.Count(out, "writeback") != 2 {
		t.Fatalf("emitted %d lines, want 2:\n%s", strings.Count(out, "writeback"), out)
	}
	if !strings.Contains(out, "capped") {
		t.Fatal("no cap notice")
	}
}

func TestWriterUnlimited(t *testing.T) {
	var sb strings.Builder
	w := &Writer{W: &sb}
	for i := 0; i < 10; i++ {
		w.Record(ev(SelfInvalidate, uint64(i)))
	}
	if strings.Count(sb.String(), "self-invalidate") != 10 {
		t.Fatal("unlimited writer dropped events")
	}
}

func TestCollectorFilterAndCount(t *testing.T) {
	c := &Collector{}
	c.Record(ev(LeaseGrant, 1))
	c.Record(ev(EpochGrant, 2))
	c.Record(ev(LeaseGrant, 3))
	if c.Count(LeaseGrant) != 2 || c.Count(EpochGrant) != 1 || c.Count(Writeback) != 0 {
		t.Fatalf("counts wrong: %d/%d/%d",
			c.Count(LeaseGrant), c.Count(EpochGrant), c.Count(Writeback))
	}
	grants := c.Filter(LeaseGrant)
	if len(grants) != 2 || grants[0].Cycle != 1 || grants[1].Cycle != 3 {
		t.Fatalf("Filter = %+v", grants)
	}
}

func TestCollectorCap(t *testing.T) {
	c := &Collector{Max: 3}
	for i := 0; i < 10; i++ {
		c.Record(ev(DirGetS, uint64(i)))
	}
	if len(c.Events) != 3 {
		t.Fatalf("collected %d, want 3", len(c.Events))
	}
}
