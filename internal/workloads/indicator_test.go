package workloads

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/sim"
)

func indicatorProfile() FaultProfile {
	return FaultProfile{
		MTBFHours:     20,
		Spares:        2,
		ReplayFrac:    0.7,
		ReplayStallUS: 6e8,
		Checkpoint:    Checkpointing{CadenceUS: 5e6, RestoreUS: 1e6},
		LeadUS:        2 * 3600 * 1e6, // 2h precursor window
	}
}

// Arming indicator emission must not perturb the fault schedule: the
// indicator streams are forked by stable id off the schedule stream.
func TestDrawWithIndicatorsScheduleByteIdentical(t *testing.T) {
	p := indicatorProfile()
	horizon := 30.0 * 24 * 3600 * 1e6
	plain, plainTally := p.Draw(sim.NewRNG(42), horizon)
	events, samples, tally := p.DrawWithIndicators(sim.NewRNG(42), horizon)
	if len(plain) != len(events) || plainTally != tally {
		t.Fatalf("indicator emission perturbed the schedule: %d vs %d events", len(plain), len(events))
	}
	for i := range plain {
		if plain[i] != events[i] {
			t.Fatalf("event %d diverged: %+v vs %+v", i, plain[i], events[i])
		}
	}
	if len(samples) == 0 {
		t.Fatal("LeadUS armed but no indicator samples emitted")
	}
	for i, s := range samples {
		if s.Level < 0 || s.Level >= 1 {
			t.Fatalf("sample %d level %g outside [0, 1)", i, s.Level)
		}
		if i > 0 && s.AtUS < samples[i-1].AtUS {
			t.Fatalf("samples not time-sorted at %d: %g after %g", i, s.AtUS, samples[i-1].AtUS)
		}
	}
	// Every fault past the first lead window has a ramp climbing above
	// the ambient ceiling inside (StartUS-LeadUS, StartUS).
	for _, ev := range events {
		if ev.StartUS < p.LeadUS {
			continue
		}
		peak := 0.0
		for _, s := range samples {
			if s.AtUS > ev.StartUS-p.LeadUS && s.AtUS < ev.StartUS && s.Level > peak {
				peak = s.Level
			}
		}
		if peak < rampFloor {
			t.Fatalf("fault at %g has precursor peak %g < ramp floor %g", ev.StartUS, peak, rampFloor)
		}
	}
	// LeadUS off: no samples, same schedule.
	p.LeadUS = 0
	_, none, _ := p.DrawWithIndicators(sim.NewRNG(42), horizon)
	if none != nil {
		t.Fatalf("LeadUS=0 emitted %d samples", len(none))
	}
}

// A pinned adaptive policy (Min == Max == the fixed cadence) prices
// every replay stall exactly as the static checkpointing path does.
func TestDrawAdaptivePinnedMatchesStatic(t *testing.T) {
	static := indicatorProfile()
	pinned := static
	pinned.Adaptive = checkpoint.CadencePolicy{Min: static.Checkpoint.CadenceUS, Max: static.Checkpoint.CadenceUS}
	horizon := 30.0 * 24 * 3600 * 1e6
	for seed := uint64(1); seed <= 5; seed++ {
		a, _ := static.Draw(sim.NewRNG(seed), horizon)
		b, tally := pinned.Draw(sim.NewRNG(seed), horizon)
		if len(a) != len(b) {
			t.Fatalf("seed %d: schedule length diverged", seed)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d event %d: %+v vs %+v", seed, i, a[i], b[i])
			}
		}
		if tally.CadenceTightens != 0 || tally.CadenceRelaxes != 0 {
			t.Fatalf("pinned policy adjusted: %+v", tally)
		}
	}
}

// Under a fault burst the adaptive cadence tightens (within bounds), the
// schedule itself never moves, and on these seeded draws the total
// repriced replay stall never exceeds the static policy's.
func TestDrawAdaptiveCadenceNeverWorse(t *testing.T) {
	static := indicatorProfile()
	static.MTBFHours = 5 // bursty
	adaptive := static
	adaptive.Adaptive = checkpoint.CadencePolicy{
		Min:         static.Checkpoint.CadenceUS / 4,
		Max:         static.Checkpoint.CadenceUS,
		BurstFaults: 3,
		BurstWindow: 10 * 3600 * 1e6, // 3 faults inside 10h = a burst at 5h MTBF
		Quiet:       40 * 3600 * 1e6,
	}
	horizon := 20.0 * 24 * 3600 * 1e6
	tightened := false
	for seed := uint64(1); seed <= 10; seed++ {
		sEv, _ := static.Draw(sim.NewRNG(seed), horizon)
		aEv, tally := adaptive.Draw(sim.NewRNG(seed), horizon)
		if len(sEv) != len(aEv) {
			t.Fatalf("seed %d: adaptation moved the schedule", seed)
		}
		var sStall, aStall float64
		for i := range sEv {
			if sEv[i].StartUS != aEv[i].StartUS || sEv[i].Kind != aEv[i].Kind {
				t.Fatalf("seed %d event %d: fault time/kind diverged", seed, i)
			}
			sStall += sEv[i].ReplayUS
			aStall += aEv[i].ReplayUS
		}
		if aStall > sStall {
			t.Errorf("seed %d: adaptive total stall %g > static %g", seed, aStall, sStall)
		}
		if tally.CadenceTightens > 0 {
			tightened = true
			if tally.FinalCadenceUS < adaptive.Adaptive.Min || tally.FinalCadenceUS > adaptive.Adaptive.Max {
				t.Errorf("seed %d: final cadence %g escaped bounds", seed, tally.FinalCadenceUS)
			}
		}
	}
	if !tightened {
		t.Error("no seed tightened the cadence at 5h MTBF — burst detection dead")
	}
}

// TestDrawWithIndicatorsPinned pins the SHA-256 of DrawWithIndicators'
// events, samples and tally for a profile whose faults fall closer
// together than LeadUS, so neighbouring pre-fault ramps interleave with
// each other and with the ambient grid.
func TestDrawWithIndicatorsPinned(t *testing.T) {
	p := indicatorProfile()
	p.MTBFHours = 0.25 // 15 min between faults against a 2 h lead window
	horizon := 3.0 * 24 * 3600 * 1e6
	for _, tc := range []struct {
		seed uint64
		sha  string
	}{
		{1, "a1c12bf79f85da3bc6d1453f9f598602cce653daae45fc7a30719f1c436a295f"},
		{2, "4e8dd9d1e009f6d34c716b4ea27e3b561382bc2c4a5535feab6dee547a16dc5f"},
	} {
		events, samples, tally := p.DrawWithIndicators(sim.NewRNG(tc.seed), horizon)
		close := 0
		for i := 1; i < len(events); i++ {
			if events[i].StartUS-events[i-1].StartUS < p.LeadUS {
				close++
			}
		}
		if close == 0 {
			t.Fatalf("seed %d: no two faults within LeadUS; the ramps do not interleave", tc.seed)
		}
		h := sha256.New()
		var b [8]byte
		put := func(v uint64) {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
		f := func(v float64) { put(math.Float64bits(v)) }
		for _, ev := range events {
			f(ev.StartUS)
			f(ev.ReplayUS)
			f(ev.CapacityFrac)
			put(uint64(ev.Kind))
		}
		for _, s := range samples {
			f(s.AtUS)
			f(s.Level)
		}
		fmt.Fprintf(h, "%+v", tally)
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.sha {
			t.Errorf("seed %d (%d events, %d samples): SHA-256 = %s, want %s", tc.seed, len(events), len(samples), got, tc.sha)
		}
	}
}
