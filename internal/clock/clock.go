// Package clock models per-chip oscillators for a plesiochronous multi-chip
// system.
//
// Every TSP in the paper's system runs from an independent clock source at a
// nominal 900 MHz, but real oscillators have a small frequency error (tens of
// ppm) and so chips drift apart over time. That drift is the entire reason
// the paper needs hardware-aligned counters (HAC), DESKEW, and
// RUNTIME_DESKEW: a reproduction with perfectly shared clocks would make the
// synchronization machinery vacuous. This package provides drifting clocks
// with exact integer arithmetic so the rest of the simulation stays
// deterministic.
package clock

import (
	"fmt"
	"math/bits"

	"repro/internal/sim"
)

// NominalFreqHz is the TSP core clock frequency used throughout the paper.
const NominalFreqHz = 900_000_000

// ClockMHz is the nominal core clock in MHz. Reporting code that converts
// cycle counts to wall time must use this (or CyclesPerMicrosecond /
// USOfCycles) rather than a literal 900.
const ClockMHz = NominalFreqHz / 1_000_000

// CyclesPerMicrosecond is the number of nominal core cycles in one
// microsecond — numerically equal to ClockMHz, named for call sites that
// convert durations.
const CyclesPerMicrosecond = ClockMHz

// USOfCycles converts a nominal-clock cycle count to microseconds, the
// unit the paper's figures report. For drifting per-chip clocks use
// Clock.CyclesToTime instead; this helper is for reporting against the
// nominal 900 MHz.
func USOfCycles(cycles int64) float64 { return float64(cycles) / CyclesPerMicrosecond }

// CyclesOfUS converts a microsecond timestamp back to nominal-clock
// cycles, rounding to the nearest cycle. It inverts USOfCycles exactly
// for cycle counts below ~2^50 (the float64 product is exact there), so
// post-run analysis can recover integer cycles from trace timestamps.
func CyclesOfUS(us float64) int64 {
	if us <= 0 {
		return 0
	}
	return int64(us*CyclesPerMicrosecond + 0.5)
}

// NominalCyclePs is the nominal core clock period in picoseconds (1/900MHz ≈
// 1111.1 ps). Kept as integer numerator/denominator: period = PsPerSecond /
// freq, computed exactly per-cycle-count below.
const PsPerSecond = 1_000_000_000_000

// Clock converts between a chip's local cycle count and global simulated
// time. The chip's true frequency is nominal*(1 + ppm/1e6), represented
// exactly as a rational so that cycle→time mapping never accumulates
// floating-point error.
type Clock struct {
	// freqMilliHz is the true frequency in millihertz, so ±ppm offsets of
	// a 900 MHz clock are representable exactly.
	freqMilliHz int64
	ppm         float64
	// phasePs is the global time at which local cycle 0 begins. Chips do
	// not power on at the same instant.
	phasePs sim.Time
}

// New returns a clock with the given frequency error in parts-per-million and
// power-on phase offset.
func New(ppm float64, phase sim.Time) *Clock {
	freqMilliHz := int64(float64(NominalFreqHz) * 1000 * (1 + ppm/1e6))
	return &Clock{freqMilliHz: freqMilliHz, ppm: ppm, phasePs: phase}
}

// TimeOfCycle returns the global time at which local cycle n begins.
// time = phase + n * (1e12 ps/s * 1000 mHz-per-Hz) / freqMilliHz, rounded
// down; the multiplication is done in big-enough integer pieces to avoid
// overflow for any cycle count below ~2^53.
func (c *Clock) TimeOfCycle(n int64) sim.Time {
	if n < 0 {
		panic("clock: negative cycle")
	}
	const scale = 1000 * PsPerSecond // ps·mHz per cycle-numerator
	return c.phasePs + sim.Time(mulDiv(n, scale, c.freqMilliHz))
}

// CycleAt returns the index of the local cycle in progress at global time t,
// i.e. the largest n with TimeOfCycle(n) <= t. Times before cycle 0 return 0.
func (c *Clock) CycleAt(t sim.Time) int64 {
	if t <= c.phasePs {
		return 0
	}
	dt := int64(t - c.phasePs)
	// n = dt * freqMilliHz / (1000*PsPerSecond), then correct for rounding.
	const scale = 1000 * PsPerSecond
	n := mulDiv(dt, c.freqMilliHz, scale)
	for c.TimeOfCycle(n+1) <= t {
		n++
	}
	for n > 0 && c.TimeOfCycle(n) > t {
		n--
	}
	return n
}

// CyclesToTime returns the duration of n cycles on this clock (relative, no
// phase).
func (c *Clock) CyclesToTime(n int64) sim.Time {
	return c.TimeOfCycle(n) - c.phasePs
}

// mulDiv computes floor(a*b/d) exactly using a 128-bit intermediate product.
// Requires a, b >= 0 and d > 0, and the quotient must fit in int64 (true for
// every call site: the result is a picosecond duration or cycle count).
func mulDiv(a, b, d int64) int64 {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	q, _ := bits.Div64(hi, lo, uint64(d))
	return int64(q)
}

// Drift describes the random distribution from which per-chip clock errors
// are drawn when building a system.
type Drift struct {
	// MaxPPM bounds the frequency error; each chip draws uniformly from
	// [-MaxPPM, +MaxPPM]. Commodity oscillators are ±25..±100 ppm.
	MaxPPM float64
	// MaxPhase bounds the power-on phase offset; each chip draws
	// uniformly from [0, MaxPhase).
	MaxPhase sim.Time
}

// DefaultDrift matches commodity ±50 ppm oscillators with up to 1 µs of
// power-on skew.
var DefaultDrift = Drift{MaxPPM: 50, MaxPhase: sim.Microsecond}

// Draw materializes a clock for the chip with the given id, deterministically
// from the RNG stream.
func (d Drift) Draw(rng *sim.RNG, chipID int) *Clock {
	r := rng.Fork(uint64(chipID) + 0x10000)
	ppm := (r.Float64()*2 - 1) * d.MaxPPM
	var phase sim.Time
	if d.MaxPhase > 0 {
		phase = sim.Time(r.Int63n(int64(d.MaxPhase)))
	}
	return New(ppm, phase)
}

// String describes the clock.
func (c *Clock) String() string {
	return fmt.Sprintf("clock{%.3f MHz, %+.2f ppm, phase %v}",
		float64(c.freqMilliHz)/1e9, c.ppm, c.phasePs)
}
