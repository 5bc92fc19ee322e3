// Static cross-chip send lookahead: how soon can this chip possibly
// issue its next Send or Transmit?
//
// The paper's core premise — all communication is statically scheduled —
// means the answer is computable from the program text alone. The window-
// parallel cluster executor (internal/runtime) uses it as PDES lookahead:
// if no chip can issue a cross-chip transfer before cycle S, then no
// cross-chip effect can land before S + route.HopCycles, and the lookahead
// window may extend to that bound instead of the fixed one-hop default.
//
// Soundness requirement: NextSendBound must be a LOWER bound on the first
// future Send/Transmit issue cycle. An underestimate only shrinks the
// window (safe); an overestimate would let a receiver consume a vector the
// sender has not delivered yet. The bound therefore charges each pending
// instruction its minimum possible cursor advance:
//
//   - RUNTIME_DESKEW advances by max(0, Imm + δt), which can be less than
//     its 1-cycle latency (δt may be negative) — its minimum advance is 0.
//   - Every other opcode advances its unit's cursor by at least
//     isa.Latency: SYNC parks at cursor+latency and a NOTIFY wake only
//     moves cursors forward, DESKEW rounds cursor+latency up to an epoch
//     boundary, and the plain ops set cursor = issue + latency exactly.
//
// Send/Transmit may sit on ANY unit stream (isa.Program.AppendTo places
// ops freely and the chip dispatches by opcode, not unit), so the scan
// covers all six streams, and a HALT ends a stream's contribution.
package tsp

import (
	"math"
	"slices"

	"repro/internal/isa"
)

// noSend marks "no Send/Transmit remains at or after this instruction".
const noSend = int64(math.MaxInt64)

// minAdvance is the smallest amount executing in can move its unit's
// cursor forward — see the file comment for why RUNTIME_DESKEW is 0.
func minAdvance(in isa.Instruction) int64 {
	if in.Op == isa.RuntimeDeskew {
		return 0
	}
	return isa.Latency(in)
}

// buildSendGaps precomputes, per unit stream, sendGap[k] = a lower bound
// on the cycles between the unit's cursor at pc=k and the issue of its
// next Send/Transmit at index >= k (noSend when none remains before the
// stream ends or halts). One backward pass per stream at construction;
// NextSendBound then answers in O(NumUnits). The same pass collects the
// sorted set of local link indices any Send/Transmit names, halted or
// not (see SendLinks).
func buildSendGaps(prog *isa.Program) (gaps [isa.NumUnits][]int64, links []int) {
	for u := 0; u < int(isa.NumUnits); u++ {
		s := prog.Streams[u]
		if len(s) == 0 {
			continue
		}
		g := make([]int64, len(s)+1)
		g[len(s)] = noSend
		for k := len(s) - 1; k >= 0; k-- {
			in := s[k]
			switch in.Op {
			case isa.Send, isa.Transmit:
				g[k] = 0
				if !slices.Contains(links, int(in.A)) {
					links = append(links, int(in.A))
				}
			case isa.Halt:
				// Nothing after a HALT on this stream ever executes.
				g[k] = noSend
			default:
				if g[k+1] == noSend {
					g[k] = noSend
				} else {
					g[k] = minAdvance(in) + g[k+1]
				}
			}
		}
		gaps[u] = g
	}
	slices.Sort(links)
	return gaps, links
}

// SendLinks returns the sorted local link indices the program sends or
// transmits on anywhere in its text: a superset of the links the chip can
// ever drive, fixed at construction. The caller must not modify it.
func (c *Chip) SendLinks() []int { return c.sendLinks }

// NextSendBound returns a conservative lower bound on the cycle at which
// this chip issues its next Send or Transmit, and whether any remains.
// The bound never overestimates: the chip cannot issue a cross-chip
// transfer strictly before the returned cycle. It never rewinds across
// calls between which the chip only executed instructions (cursors are
// monotone, see NextIssue), so the window executor may cache nothing.
func (c *Chip) NextSendBound() (int64, bool) {
	bound := noSend
	for u := isa.Unit(0); u < isa.NumUnits; u++ {
		if c.unitDone(u) {
			continue
		}
		g := c.sendGap[u][c.pc[u]]
		if g == noSend {
			continue
		}
		// A parked unit resumes at a NOTIFY wake >= its cursor, so the
		// cursor-based bound stays valid without special-casing parks.
		if b := c.cursor[u] + g; b < bound {
			bound = b
		}
	}
	return bound, bound != noSend
}
