package faultplan

import (
	"math"
	"testing"

	"repro/internal/hac"
	"repro/internal/topo"
)

func sys3(t *testing.T) *topo.System {
	t.Helper()
	s, err := topo.New(topo.Config{Nodes: 3})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	return s
}

func TestFaultPlanCompileQueries(t *testing.T) {
	sys := sys3(t)
	p := &Plan{Events: []Event{
		{Cycle: 100, Until: 300, Kind: LinkFlap, Link: 2},
		{Cycle: 500, Kind: LinkDown, Link: 2},
		{Cycle: 200, Until: 400, Kind: BERExcursion, Link: 5, BER: 1e-3},
		{Cycle: 1000, Kind: NodeDeath, Node: 1},
		{Cycle: 700, Kind: StuckChip, Chip: 3},
	}}
	c, err := p.Compile(sys)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if c.LinkDownAt(2, 99) || !c.LinkDownAt(2, 100) || !c.LinkDownAt(2, 299) || c.LinkDownAt(2, 300) {
		t.Error("flap window wrong")
	}
	if c.LinkDownAt(2, 499) || !c.LinkDownAt(2, 500) || !c.LinkDownAt(2, 1<<40) {
		t.Error("permanent link-down wrong")
	}
	if ber, ok := c.LinkBERAt(5, 250); !ok || ber != 1e-3 {
		t.Errorf("excursion at 250 = %v,%v", ber, ok)
	}
	if _, ok := c.LinkBERAt(5, 400); ok {
		t.Error("excursion should clear at Until")
	}
	if d, ok := c.DeathCycle(3); !ok || d != 700 {
		t.Errorf("stuck chip 3 death = %v,%v", d, ok)
	}
	// Node 1 death kills chips 8..15.
	for chip := topo.TSPID(8); chip < 16; chip++ {
		if d, ok := c.DeathCycle(chip); !ok || d != 1000 {
			t.Errorf("chip %d death = %v,%v", chip, d, ok)
		}
	}
	if _, ok := c.DeathCycle(0); ok {
		t.Error("chip 0 should never die")
	}
}

func TestFaultPlanValidateRejects(t *testing.T) {
	sys := sys3(t)
	bad := []struct {
		name string
		e    Event
	}{
		{"negative cycle", Event{Cycle: -1, Kind: LinkDown, Link: 0}},
		{"negative until", Event{Cycle: 10, Until: -5, Kind: LinkDown, Link: 0}},
		{"link out of range", Event{Cycle: 10, Kind: LinkDown, Link: topo.LinkID(len(sys.Links()))}},
		{"negative link", Event{Cycle: 10, Kind: LinkDown, Link: -1}},
		{"clears before start", Event{Cycle: 10, Until: 10, Kind: LinkDown, Link: 0}},
		{"flap without until", Event{Cycle: 10, Kind: LinkFlap, Link: 0}},
		{"zero BER", Event{Cycle: 10, Until: 20, Kind: BERExcursion, Link: 0, BER: 0}},
		{"BER of one", Event{Cycle: 10, Until: 20, Kind: BERExcursion, Link: 0, BER: 1}},
		{"NaN BER", Event{Cycle: 10, Until: 20, Kind: BERExcursion, Link: 0, BER: math.NaN()}},
		{"+Inf BER", Event{Cycle: 10, Until: 20, Kind: BERExcursion, Link: 0, BER: math.Inf(1)}},
		{"-Inf BER", Event{Cycle: 10, Until: 20, Kind: BERExcursion, Link: 0, BER: math.Inf(-1)}},
		{"node out of range", Event{Cycle: 10, Kind: NodeDeath, Node: 3}},
		{"node death with until", Event{Cycle: 10, Until: 20, Kind: NodeDeath, Node: 1}},
		{"chip out of range", Event{Cycle: 10, Kind: StuckChip, Chip: 24}},
		{"stuck chip with until", Event{Cycle: 10, Until: 20, Kind: StuckChip, Chip: 3}},
		{"unknown kind", Event{Cycle: 10, Kind: Kind(99)}},
	}
	for _, tc := range bad {
		p := &Plan{Events: []Event{tc.e}}
		if err := p.Validate(sys); err == nil {
			t.Errorf("%s (%v): expected error", tc.name, tc.e)
		}
	}
	good := &Plan{Events: []Event{
		{Cycle: 0, Kind: LinkDown, Link: 0},
		{Cycle: 10, Until: 20, Kind: LinkFlap, Link: 1},
		{Cycle: 10, Until: 20, Kind: BERExcursion, Link: 2, BER: 1e-6},
		{Cycle: 10, Kind: NodeDeath, Node: 2},
		{Cycle: 10, Kind: StuckChip, Chip: 3},
	}}
	if err := good.Validate(sys); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
}

func TestMonitorDiagnose(t *testing.T) {
	m := NewMonitor(4, 650)
	if m.IntervalCycles != 4*hac.Period {
		t.Fatalf("interval = %d", m.IntervalCycles)
	}
	wantDeadline := 4*int64(hac.Period) + hac.SyncOverheadCycles(650, 1)
	if m.DeadlineCycles != wantDeadline {
		t.Fatalf("deadline = %d, want %d", m.DeadlineCycles, wantDeadline)
	}

	horizon := int64(100_000)
	rep := HealthReport{Horizon: horizon}
	// Node 0 chips: all fresh. Node 1 chips: all stale (dead node).
	// Node 2: one stale chip (stuck), rest fresh.
	for chip := topo.TSPID(0); chip < 24; chip++ {
		hb := horizon - m.IntervalCycles // fresh
		if chip >= 8 && chip < 16 {
			hb = 10_000 // stale: node death
		}
		if chip == 17 {
			hb = 20_000 // stale: stuck chip
		}
		rep.Chips = append(rep.Chips, ChipHealth{Chip: chip, LastHeartbeat: hb})
	}
	rep.Links = append(rep.Links,
		LinkHealth{Link: 7, MBEs: 0},
		LinkHealth{Link: 3, MBEs: 2, FirstMBECycle: 55_000},
	)
	d := m.Diagnose(rep)
	if len(d.DeadNodes) != 1 || d.DeadNodes[0] != 1 {
		t.Errorf("DeadNodes = %v", d.DeadNodes)
	}
	if len(d.StuckChips) != 1 || d.StuckChips[0] != 17 {
		t.Errorf("StuckChips = %v", d.StuckChips)
	}
	if len(d.SuspectLinks) != 1 || d.SuspectLinks[0] != 3 {
		t.Errorf("SuspectLinks = %v", d.SuspectLinks)
	}
	// Latest verdict: stuck chip 17's deadline expiry (20000 + deadline + 1)
	// vs node 1's (10000 + deadline + 1) vs link MBE at 55000.
	want := int64(20_000) + m.DeadlineCycles + 1
	if want < 55_000 {
		want = 55_000
	}
	if d.DetectCycle != want {
		t.Errorf("DetectCycle = %d, want %d", d.DetectCycle, want)
	}
	clean := m.Diagnose(HealthReport{Horizon: horizon, Chips: []ChipHealth{{Chip: 0, LastHeartbeat: horizon}}})
	if len(clean.DeadNodes)+len(clean.StuckChips)+len(clean.SuspectLinks) != 0 || clean.DetectCycle != 0 {
		t.Errorf("clean diagnosis = %+v", clean)
	}
}
