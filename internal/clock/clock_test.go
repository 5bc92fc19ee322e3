package clock

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestNominalClockPeriod(t *testing.T) {
	c := New(0, 0)
	// 900 cycles of a 900 MHz clock is exactly 1 microsecond.
	if got := c.TimeOfCycle(900); got != sim.Microsecond {
		t.Fatalf("900 cycles = %v, want 1us", got)
	}
	// 9 cycles = 10ns exactly.
	if got := c.TimeOfCycle(9); got != 10*sim.Nanosecond {
		t.Fatalf("9 cycles = %v, want 10ns", got)
	}
}

func TestClockPhase(t *testing.T) {
	c := New(0, 123*sim.Nanosecond)
	if c.TimeOfCycle(0) != 123*sim.Nanosecond {
		t.Fatalf("cycle 0 at %v, want 123ns", c.TimeOfCycle(0))
	}
	if c.phasePs != 123*sim.Nanosecond {
		t.Fatal("phase accessor mismatch")
	}
}

func TestFastAndSlowClocksDrift(t *testing.T) {
	fast := New(+50, 0) // +50 ppm
	slow := New(-50, 0)
	n := int64(900_000_000) // one nominal second of cycles
	tf := fast.TimeOfCycle(n)
	ts := slow.TimeOfCycle(n)
	// +50ppm clock finishes its cycles ~50us early; -50ppm ~50us late.
	if tf >= sim.Second || ts <= sim.Second {
		t.Fatalf("drift direction wrong: fast=%v slow=%v", tf, ts)
	}
	driftF := sim.Second - tf
	driftS := ts - sim.Second
	// Both should be ~50us (50ppm of 1s), within 1ns of exact rationals.
	for _, d := range []sim.Time{driftF, driftS} {
		if d < 49990*sim.Nanosecond || d > 50010*sim.Nanosecond {
			t.Fatalf("drift over 1s = %v, want ~50us", d)
		}
	}
}

func TestCycleAtInvertsTimeOfCycle(t *testing.T) {
	clocks := []*Clock{
		New(0, 0),
		New(+37.5, 17*sim.Nanosecond),
		New(-88.25, 999*sim.Nanosecond),
	}
	for _, c := range clocks {
		for _, n := range []int64{0, 1, 2, 255, 256, 1_000_000, 900_000_000} {
			tm := c.TimeOfCycle(n)
			got := c.CycleAt(tm)
			if got != n {
				t.Fatalf("%v: CycleAt(TimeOfCycle(%d)) = %d", c, n, got)
			}
			// Just before the cycle starts we must still be in cycle n-1.
			if n > 0 {
				if got := c.CycleAt(tm - 1); got != n-1 {
					t.Fatalf("%v: CycleAt(start-1ps) = %d, want %d", c, got, n-1)
				}
			}
		}
	}
}

func TestCycleAtProperty(t *testing.T) {
	c := New(+50, 5*sim.Nanosecond)
	if err := quick.Check(func(raw uint32) bool {
		n := int64(raw)
		tm := c.TimeOfCycle(n)
		return c.CycleAt(tm) == n && c.TimeOfCycle(n+1) > tm
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCycleAtBeforePhase(t *testing.T) {
	c := New(0, 100*sim.Nanosecond)
	if got := c.CycleAt(10 * sim.Nanosecond); got != 0 {
		t.Fatalf("CycleAt before power-on = %d, want 0", got)
	}
}

func TestNegativeCyclePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("TimeOfCycle(-1) did not panic")
		}
	}()
	New(0, 0).TimeOfCycle(-1)
}

func TestCyclesToTimeIsRelative(t *testing.T) {
	c := New(0, 55*sim.Nanosecond)
	if got := c.CyclesToTime(900); got != sim.Microsecond {
		t.Fatalf("CyclesToTime(900) = %v, want 1us regardless of phase", got)
	}
}

func TestDriftDrawDeterministicAndBounded(t *testing.T) {
	rng := sim.NewRNG(42)
	d := Drift{MaxPPM: 50, MaxPhase: sim.Microsecond}
	c1 := d.Draw(rng, 7)
	c2 := d.Draw(rng, 7)
	if c1.ppm != c2.ppm || c1.phasePs != c2.phasePs {
		t.Fatal("Draw for the same chip id must be deterministic")
	}
	other := d.Draw(rng, 8)
	if other.ppm == c1.ppm {
		t.Fatal("different chips should draw different ppm")
	}
	for id := 0; id < 200; id++ {
		c := d.Draw(rng, id)
		if c.ppm < -50 || c.ppm > 50 {
			t.Fatalf("ppm %f out of range", c.ppm)
		}
		if c.phasePs < 0 || c.phasePs >= sim.Microsecond {
			t.Fatalf("phase %v out of range", c.phasePs)
		}
	}
}

func TestMulDivExactness(t *testing.T) {
	// Against big-number ground truth on hand-picked hard cases.
	cases := []struct{ a, b, d, want int64 }{
		{0, 5, 3, 0},
		{1, 1, 1, 1},
		{900_000_000, 1_000_000 * 1000, 900_000_000_000, 1_000_000},
		// (2^40+3) * 1e15 / 9e11 = 10995116277790000/9 = 1221679586421111 r1
		{(1 << 40) + 3, 1000 * PsPerSecond, 900_000_000_000, 1221679586421111},
	}
	for _, c := range cases {
		if got := mulDiv(c.a, c.b, c.d); got != c.want {
			t.Errorf("mulDiv(%d,%d,%d) = %d, want %d", c.a, c.b, c.d, got, c.want)
		}
	}
}
