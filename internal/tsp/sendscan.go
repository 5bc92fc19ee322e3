// Static send-link scan: which links can this chip ever drive?
//
// The paper's core premise — all communication is statically scheduled —
// means the answer is computable from the program text alone. The cluster
// runtime (internal/runtime) builds its static send graph from it and runs
// each connected component on its own heap.
//
// Send/Transmit may sit on ANY unit stream (isa.Program.AppendTo places
// ops freely and the chip dispatches by opcode, not unit), so the scan
// covers all six streams.
package tsp

import (
	"slices"

	"repro/internal/isa"
)

// scanSendLinks collects the sorted set of local link indices any
// Send/Transmit in the program names, halted or not (see SendLinks).
func scanSendLinks(prog *isa.Program) (links []int) {
	for _, s := range prog.Streams {
		for _, in := range s {
			if (in.Op == isa.Send || in.Op == isa.Transmit) && !slices.Contains(links, int(in.A)) {
				links = append(links, int(in.A))
			}
		}
	}
	slices.Sort(links)
	return links
}

// SendLinks returns the sorted local link indices the program sends or
// transmits on anywhere in its text: a superset of the links the chip can
// ever drive, fixed at construction and shared by every chip built from
// this one with NewLike. The caller must not modify it.
func (c *Chip) SendLinks() []int { return c.sendLinks }
