// Package sim provides integer-picosecond time and seeded RNG streams,
// the two primitives the deterministic models build on.
//
// Model time is kept as an integer number of picoseconds so that results
// are exactly reproducible across runs and platforms: there is no
// floating-point accumulation anywhere on the time axis. Every stochastic
// component owns a private SplitMix64 stream, seeded or forked from a
// stable id, so no draw depends on unrelated code or on scheduling order.
package sim

import "fmt"

// Time is a point in simulated time, in integer picoseconds.
type Time int64

// Common durations.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Nanoseconds returns the time as a float64 nanosecond count (for reporting
// only; never used to drive the simulation).
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Microseconds returns the time as float64 microseconds (reporting only).
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// String formats the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t < 10*Nanosecond:
		return fmt.Sprintf("%dps", int64(t))
	case t < 10*Microsecond:
		return fmt.Sprintf("%.3fns", t.Nanoseconds())
	case t < 10*Millisecond:
		return fmt.Sprintf("%.3fus", t.Microseconds())
	default:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	}
}
