// Package hac implements the counter machinery of paper §3 that gives a
// multi-chip system the illusion of a shared clock:
//
//   - the hardware-aligned counter (HAC), an 8-bit free-running counter with
//     a 252-cycle usable period (4 of the 256 codes are reserved for control)
//     that is continuously exchanged with a parent chip and slewed toward
//     the parent's value — the "global" view of time;
//   - the software-aligned counter (SAC), same period but never adjusted —
//     the "local" view of time;
//   - link-latency characterization via the HAC reflect protocol (Table 2);
//   - parent/child HAC alignment and spanning-tree distribution of a common
//     reference (Fig 7a);
//   - DESKEW-based initial program alignment (Fig 7b); and
//   - RUNTIME_DESKEW resynchronization that re-absorbs accumulated clock
//     drift during long computations.
package hac

import (
	"fmt"
	"math"

	"repro/internal/c2c"
	"repro/internal/clock"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
)

// hacTid is the trace track used for HAC events on a device's pid (well
// above the functional-unit tracks).
const hacTid = 90

// Counter period constants (§3.2 footnote: 8-bit HAC, 4 control codes).
const (
	// Period is the usable HAC/SAC period in cycles — one "epoch".
	Period = 252
	// RawPeriod is the raw 8-bit counter span.
	RawPeriod = 256
)

// Device is one chip's synchronization-visible state: its oscillator, its
// adjustable HAC offset, and its free-running SAC. It is deliberately tiny —
// the full TSP model composes it.
type Device struct {
	ID    int
	Clock *clock.Clock
	// hacOffset is the software-visible adjustment accumulated by the
	// alignment process, in cycles mod Period.
	hacOffset int64
	// sacOffset pins the SAC phase; it changes only when a
	// RUNTIME_DESKEW re-bases local time.
	sacOffset int64
	// adj records total adjustment applied (diagnostics).
	adj int64
}

// NewDevice returns a device with both counters at zero phase.
func NewDevice(id int, clk *clock.Clock) *Device {
	return &Device{ID: id, Clock: clk}
}

// HAC returns the device's hardware-aligned counter value at global time t.
func (d *Device) HAC(t sim.Time) int64 {
	return mod(d.Clock.CycleAt(t)+d.hacOffset, Period)
}

// SAC returns the software-aligned counter value at global time t.
func (d *Device) SAC(t sim.Time) int64 {
	return mod(d.Clock.CycleAt(t)+d.sacOffset, Period)
}

// Delta returns the signed HAC−SAC difference at time t in (−Period/2,
// Period/2]: the accumulated local-vs-global drift since the last rebase.
func (d *Device) Delta(t sim.Time) int64 {
	return signedMod(d.HAC(t)-d.SAC(t), Period)
}

// AdjustHAC slews the HAC by the signed amount (the alignment step).
func (d *Device) AdjustHAC(by int64) {
	d.hacOffset = mod(d.hacOffset+by, Period)
	d.adj += by
}

// RebaseSAC snaps the SAC phase onto the HAC phase (performed by
// RUNTIME_DESKEW after the stall re-aligns program time).
func (d *Device) RebaseSAC() { d.sacOffset = d.hacOffset }

// NextEpochBoundary returns the earliest global time ≥ t at which this
// device's HAC reads zero — the moment a DESKEW instruction releases.
func (d *Device) NextEpochBoundary(t sim.Time) sim.Time {
	cyc := d.Clock.CycleAt(t)
	h := mod(cyc+d.hacOffset, Period)
	if h == 0 && d.Clock.TimeOfCycle(cyc) == t {
		return t
	}
	target := cyc + (Period - h)
	return d.Clock.TimeOfCycle(target)
}

// mod returns x mod m in [0, m).
func mod(x, m int64) int64 {
	r := x % m
	if r < 0 {
		r += m
	}
	return r
}

// signedMod maps x into (−m/2, m/2].
func signedMod(x, m int64) int64 {
	r := mod(x, m)
	if r > m/2 {
		r -= m
	}
	return r
}

// CharacterizeLink runs the HAC reflect protocol of §3.1 (Fig 7a) for the
// given number of iterations: the parent transmits its HAC, the peer
// reflects it, and the parent halves the observed round trip. It returns the
// per-iteration latency estimates as a summary — one row of Table 2.
func CharacterizeLink(link *c2c.Link, iters int) *stats.Summary {
	link.Recorder().Counter("hac.reflect_pings").Add(int64(iters))
	s := stats.NewSummary()
	for i := 0; i < iters; i++ {
		rtt := link.DrawLatencyCycles() + link.DrawLatencyCycles()
		s.Add(math.Round(float64(rtt) / 2))
	}
	return s
}

// RecharacterizeGuardCycles is the guard band a post-flap
// re-characterization adds to a link's aligned presentation latency: a
// link that flapped is assumed marginal, so the deskew FIFO widens by this
// much even when the re-observed draws look clean.
const RecharacterizeGuardCycles = 8

// Recharacterize re-runs the reflect protocol on a link that flapped or
// showed uncorrectable errors, and widens its aligned presentation
// latency: the deskew FIFO re-trains to cover the worst re-observed draw
// plus a guard band. A marginal link thus trades a few cycles of fixed
// latency for schedule safety instead of being retired outright — the
// middle rung of the §4.5 recovery ladder. The link is marked Healthy
// again, and the new aligned latency is returned.
func Recharacterize(link *c2c.Link, iters int) int {
	link.Recorder().Counter("hac.recharacterizations").Inc()
	s := CharacterizeLink(link, iters)
	// base is the pre-margin presentation latency (characterized worst
	// case); the new margin must cover the worst fresh draw plus guard,
	// and never shrinks below one guard band over the old margin.
	base := link.AlignedLatencyCycles() - link.AlignedMarginCycles()
	margin := int(s.Max()) + RecharacterizeGuardCycles - base
	if floor := link.AlignedMarginCycles() + RecharacterizeGuardCycles; margin < floor {
		margin = floor
	}
	link.SetAlignedMargin(margin)
	link.SetHealth(c2c.Healthy)
	return link.AlignedLatencyCycles()
}

// HeartbeatDeadlineCycles is the detection deadline of the runtime health
// monitor: a chip heartbeats every intervalEpochs HAC epochs, and its node
// is declared suspect when no heartbeat lands within one full interval
// plus the propagation grace of the §3.2 bound for a single hop —
// (⌊L/period⌋+1) epochs for the worst link latency L. This is the same
// deadline math that bounds initial synchronization, reused for failure
// detection.
func HeartbeatDeadlineCycles(intervalEpochs int, maxLinkLatencyCycles int64) int64 {
	if intervalEpochs < 1 {
		intervalEpochs = 1
	}
	return int64(intervalEpochs)*Period + SyncOverheadCycles(maxLinkLatencyCycles, 1)
}

// Edge is a parent→child HAC relationship over a physical link.
type Edge struct {
	Parent, Child *Device
	Link          *c2c.Link
	// CharLatency is the characterized mean one-way latency in cycles,
	// from CharacterizeLink.
	CharLatency int64
}

// Characterize fills CharLatency from a fresh characterization run.
func (e *Edge) Characterize(iters int) {
	e.CharLatency = int64(math.Round(CharacterizeLink(e.Link, iters).Mean()))
}

// AlignOnce performs one iteration of the Fig 7a adjustment at global time
// t: the parent's HAC value is sampled and sent, arrives after a drawn link
// latency, and the child slews its HAC toward (received + characterized
// latency) by at most maxStep cycles. It returns the signed misalignment
// observed before the adjustment.
func (e *Edge) AlignOnce(t sim.Time, maxStep int64) int64 {
	sent := e.Parent.HAC(t)
	lat := e.Link.DrawLatencyCycles()
	arrival := t + e.Parent.Clock.CyclesToTime(int64(lat))
	expected := mod(sent+e.CharLatency, Period)
	actual := e.Child.HAC(arrival)
	diff := signedMod(expected-actual, Period)
	step := diff
	if step > maxStep {
		step = maxStep
	}
	if step < -maxStep {
		step = -maxStep
	}
	e.Child.AdjustHAC(step)
	return diff
}

// AlignResult reports the outcome of running an alignment loop.
type AlignResult struct {
	Iterations int
	// FinalError is the last observed pre-adjustment misalignment.
	FinalError int64
	// Converged is true when the loop ended inside tolerance.
	Converged bool
	// End is the global time at which the loop finished.
	End sim.Time
}

// Align runs AlignOnce once per epoch until the observed misalignment stays
// within tol cycles for 8 consecutive iterations, or maxIters is reached.
// The paper bounds convergence by roughly the HAC period; so do we. It
// records into the edge link's recorder.
func (e *Edge) Align(start sim.Time, maxStep, tol int64, maxIters int) AlignResult {
	rec := e.Link.Recorder()
	rec.SetThreadName(e.Child.ID, hacTid, "hac")
	finish := func(r AlignResult) AlignResult {
		rec.Counter("hac.align_rounds").Add(int64(r.Iterations))
		if r.Converged {
			rec.Counter("hac.edges_converged").Inc()
		} else {
			rec.Counter("hac.edges_diverged").Inc()
		}
		rec.SpanUS(e.Child.ID, hacTid, "hac.align", start.Microseconds(), (r.End - start).Microseconds())
		return r
	}
	t := start
	stable := 0
	var last int64
	epoch := e.Parent.Clock.CyclesToTime(Period)
	for i := 1; i <= maxIters; i++ {
		last = e.AlignOnce(t, maxStep)
		t += epoch
		if abs(last) <= tol {
			stable++
			if stable >= 8 {
				return finish(AlignResult{Iterations: i, FinalError: last, Converged: true, End: t})
			}
		} else {
			stable = 0
		}
	}
	return finish(AlignResult{Iterations: maxIters, FinalError: last, Converged: false, End: t})
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// Tree is a spanning tree of HAC parent/child edges rooted at one device,
// used to distribute the root's time reference across a multi-hop system.
type Tree struct {
	Root *Device
	// Levels holds the edges grouped by distance from the root; level i
	// edges have parents at depth i.
	Levels [][]*Edge
	// rec is the recorder every edge's link is instrumented with.
	rec *obs.Recorder
}

// Align aligns the whole tree level by level (parents must hold the
// reference before children can inherit it). It returns the worst per-edge
// result.
func (t *Tree) Align(start sim.Time, maxStep, tol int64, maxIters int) AlignResult {
	worst := AlignResult{Converged: true}
	for _, level := range t.Levels {
		for _, e := range level {
			r := e.Align(start, maxStep, tol, maxIters)
			if !r.Converged {
				worst.Converged = false
			}
			if abs(r.FinalError) > abs(worst.FinalError) {
				worst.FinalError = r.FinalError
			}
			if r.Iterations > worst.Iterations {
				worst.Iterations = r.Iterations
			}
			if r.End > worst.End {
				worst.End = r.End
			}
		}
	}
	return worst
}

// SyncOverheadCycles returns the paper's initial-synchronization overhead
// bound (§3.2): (⌊L/period⌋ + 1) · h epochs expressed in cycles, where L is
// the maximum single-link latency in cycles and h the tree height.
func SyncOverheadCycles(maxLinkLatency int64, height int) int64 {
	return (maxLinkLatency/Period + 1) * int64(height) * Period
}

func (d *Device) String() string {
	return fmt.Sprintf("hacdev{%d, %v, hacOff=%d sacOff=%d}", d.ID, d.Clock, d.hacOffset, d.sacOffset)
}
