package c2c

import (
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
)

func TestEncodingEfficiency(t *testing.T) {
	// Fig 11: 320/328 = 97.5 %.
	eff := EncodingEfficiency()
	if eff < 0.9756 || eff > 0.9757 {
		t.Fatalf("encoding efficiency = %f, want ~0.9756", eff)
	}
}

func TestFrameTime(t *testing.T) {
	// 328 bytes at 100 Gbps = 26.24 ns.
	if FrameTime != 26240*sim.Picosecond {
		t.Fatalf("FrameTime = %v, want 26.24ns", FrameTime)
	}
	// One frame occupies at most VectorSlotCycles 900 MHz cycles.
	cyclePs := sim.Time(1111) // floor of 1111.1ps
	if sim.Time(VectorSlotCycles)*cyclePs < FrameTime {
		t.Fatalf("VectorSlotCycles=%d too small to cover %v", VectorSlotCycles, FrameTime)
	}
}

func TestIntraNodeLatencyFloor(t *testing.T) {
	l := New(IntraNode(), sim.NewRNG(1))
	// Table 2 floor is 209 cycles for 0.75m electrical cables.
	if got := l.MinLatencyCycles(); got != 210 && got != 209 {
		t.Fatalf("intra-node min latency = %d cycles, want 209-210", got)
	}
}

func TestLatencyOrdering(t *testing.T) {
	rng := sim.NewRNG(2)
	node := New(IntraNode(), rng.Fork(1))
	rack := New(IntraRack(), rng.Fork(2))
	optical := New(InterRack(10), rng.Fork(3))
	if !(node.MinLatencyCycles() < rack.MinLatencyCycles() &&
		rack.MinLatencyCycles() < optical.MinLatencyCycles()) {
		t.Fatalf("latency ordering violated: node=%d rack=%d optical=%d",
			node.MinLatencyCycles(), rack.MinLatencyCycles(), optical.MinLatencyCycles())
	}
	if optical.MinLatencyCycles()-rack.MinLatencyCycles() < opticalExtraCycles {
		t.Fatal("optical transceiver latency not applied")
	}
}

// TestPerDirectionLatencyDistribution checks the raw one-way draw model that
// underlies Table 2. (The Table 2 protocol itself — round-trip/2 via HAC
// reflection — is reproduced in internal/hac.)
func TestPerDirectionLatencyDistribution(t *testing.T) {
	for linkID := uint64(0); linkID < 7; linkID++ {
		l := New(IntraNode(), sim.NewRNG(42).Fork(linkID))
		s := stats.NewSummary()
		for i := 0; i < 100_000; i++ {
			s.Add(float64(l.DrawLatencyCycles()))
		}
		if s.Min() < 209 || s.Min() > 212 {
			t.Errorf("link %d: min = %.0f, want ~209-212", linkID, s.Min())
		}
		if s.Mean() < 215 || s.Mean() > 219 {
			t.Errorf("link %d: mean = %.2f, want ~216-218", linkID, s.Mean())
		}
		if s.Max() < 224 || s.Max() > 230 {
			t.Errorf("link %d: max = %.0f, want ~225-229", linkID, s.Max())
		}
		if s.Std() < 3.2 || s.Std() > 4.4 {
			t.Errorf("link %d: one-way std = %.2f, want ~3.4-4.2", linkID, s.Std())
		}
	}
}

func TestAlignedLatencyDominatesDraws(t *testing.T) {
	l := New(IntraNode(), sim.NewRNG(3))
	aligned := l.AlignedLatencyCycles()
	for i := 0; i < 200_000; i++ {
		if d := l.DrawLatencyCycles(); d > aligned {
			t.Fatalf("draw %d exceeds aligned latency %d: schedule would underflow", d, aligned)
		}
	}
}

func TestDeterministicDraws(t *testing.T) {
	l1 := New(IntraNode(), sim.NewRNG(7).Fork(5))
	l2 := New(IntraNode(), sim.NewRNG(7).Fork(5))
	for i := 0; i < 1000; i++ {
		if l1.DrawLatencyCycles() != l2.DrawLatencyCycles() {
			t.Fatal("same-seed links must draw identical latencies")
		}
	}
}

func TestTransmitCleanLink(t *testing.T) {
	l := New(IntraNode(), sim.NewRNG(8))
	var v [VectorBytes]byte
	for i := range v {
		v[i] = byte(i)
	}
	corrected, mbe := l.TransferVector(&v)
	if corrected != 0 || mbe {
		t.Fatalf("clean link: corrected=%d mbe=%v", corrected, mbe)
	}
	for i := range v {
		if v[i] != byte(i) {
			t.Fatalf("payload byte %d corrupted", i)
		}
	}
}

func TestTransmitWithSBEsCorrects(t *testing.T) {
	// BER high enough to see some single-bit errors over many frames but
	// low enough that two errors rarely land in the same 64-bit stripe.
	cfg := IntraNode()
	cfg.BitErrorRate = 1e-4
	l := New(cfg, sim.NewRNG(9))
	var want [VectorBytes]byte
	for i := range want {
		want[i] = byte(i * 3)
	}
	totalCorrected, mbes := 0, 0
	for i := 0; i < 2000; i++ {
		v := want
		corrected, mbe := l.TransferVector(&v)
		totalCorrected += corrected
		if mbe {
			mbes++
			continue
		}
		if v != want {
			t.Fatalf("frame %d: corrected payload still differs", i)
		}
	}
	if totalCorrected == 0 {
		t.Fatal("expected some corrected SBEs at BER 1e-4")
	}
	// Expected SBEs: 2000 frames * 2560 bits * 1e-4 = ~512.
	if totalCorrected < 300 || totalCorrected > 800 {
		t.Fatalf("corrected = %d, want ~512", totalCorrected)
	}
}

func TestTransmitWithBurstDetects(t *testing.T) {
	cfg := IntraNode()
	cfg.BitErrorRate = 0.01 // guarantees multi-bit stripes
	l := New(cfg, sim.NewRNG(10))
	mbes := 0
	for i := 0; i < 100; i++ {
		var v [VectorBytes]byte
		if _, mbe := l.TransferVector(&v); mbe {
			mbes++
		}
	}
	if mbes == 0 {
		t.Fatal("BER 1e-2 should trigger detected MBEs")
	}
}

func TestMediaString(t *testing.T) {
	if Electrical.String() != "electrical" || Optical.String() != "optical" {
		t.Fatal("media string mismatch")
	}
	l := New(InterRack(25), sim.NewRNG(11))
	if !strings.Contains(l.String(), "optical") {
		t.Fatalf("link string %q should mention media", l.String())
	}
}
