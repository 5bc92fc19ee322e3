package runtime

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/route"
	"repro/internal/topo"
)

// Schedule lowering: turn a compiled CommSchedule into real per-chip
// machine code — SEND at each vector's departure slot, RECV+SEND forwarding
// at every intermediate hop, RECV at the destination — and nothing else.
// Executing the generated binaries on the Cluster is the end-to-end proof
// of the paper's core claim: a verified schedule needs no arbitration, no
// back-pressure, and never underflows a receiver.
//
// One modeling allowance: the chip model runs all link controllers from a
// single C2C instruction stream, so two vectors scheduled to depart from
// one chip on different links in the same cycle serialize by one cycle
// each. The generator absorbs this with a per-hop issue margin, exactly as
// the real compiler pads for instruction-queue occupancy.

// HopMargin is the per-hop slack (cycles) added to downstream issue times
// to absorb same-chip issue serialization.
const HopMargin = 16

// VectorPlacement says where a scheduled vector's payload ends up.
type VectorPlacement struct {
	Transfer core.TransferID
	Index    int
	// SrcChip/SrcStream: where the generator expects the payload to be
	// loaded before Run.
	SrcChip   int
	SrcStream int
	// DstChip/DstStream: where the payload lands after Run.
	DstChip   int
	DstStream int
}

// chipEvent is one C2C instruction with its scheduled issue floor.
type chipEvent struct {
	at    int64
	seq   int
	instr isa.Instruction
}

// ProgramsFromSchedule lowers a communication schedule to per-chip
// programs. Stream registers 8..63 are assigned round-robin to vectors;
// schedules moving more concurrent vectors through one chip than that will
// clobber payloads (fine for timing, detected by the correctness checks in
// tests).
func ProgramsFromSchedule(sys *topo.System, cs *core.CommSchedule) ([]*isa.Program, []VectorPlacement, error) {
	events := make([][]chipEvent, sys.NumTSPs())
	placements := make([]VectorPlacement, 0, len(cs.Slots))
	seq := 0

	nextStream := make([]int, sys.NumTSPs())
	claimStream := func(chip int) int {
		s := 8 + nextStream[chip]%56
		nextStream[chip]++
		return s
	}

	for _, slot := range cs.Slots {
		path := slot.Route.Path
		links := slot.Route.Links
		srcChip := int(path[0])
		srcStream := claimStream(srcChip)
		pl := VectorPlacement{
			Transfer: slot.Transfer, Index: slot.Index,
			SrcChip: srcChip, SrcStream: srcStream,
		}
		stream := srcStream
		t := slot.Depart
		for h, link := range links {
			from := path[h]
			if sys.Link(link).From != from {
				return nil, nil, fmt.Errorf("runtime: link %d does not leave TSP %d", link, from)
			}
			// Send from `from` at the scheduled hop departure.
			seq++
			events[from] = append(events[from], chipEvent{
				at: t + int64(h)*HopMargin, seq: seq,
				instr: isa.Instruction{Op: isa.Send, A: uint16(sys.Port(link)), B: uint16(stream)},
			})
			// Receive at the next TSP.
			to := path[h+1]
			arrive := t + route.HopCycles + int64(h+1)*HopMargin
			rxStream := claimStream(int(to))
			seq++
			events[to] = append(events[to], chipEvent{
				at: arrive, seq: seq,
				instr: isa.Instruction{Op: isa.Recv, A: uint16(sys.Port(sys.Link(link).Reverse)), B: uint16(rxStream)},
			})
			stream = rxStream
			t += route.HopCycles
		}
		pl.DstChip = int(path[len(path)-1])
		pl.DstStream = stream
		placements = append(placements, pl)
	}

	progs := make([]*isa.Program, sys.NumTSPs())
	for chip, evs := range events {
		if len(evs) == 0 {
			continue
		}
		sort.Slice(evs, func(i, j int) bool {
			if evs[i].at != evs[j].at {
				return evs[i].at < evs[j].at
			}
			return evs[i].seq < evs[j].seq
		})
		var b isa.Builder
		for _, e := range evs {
			b.After(isa.C2C, e.at, e.instr)
		}
		progs[chip] = b.Program()
	}
	return progs, placements, nil
}

// ExecuteSchedule lowers and runs a communication schedule with the given
// per-vector payload loader, returning the cluster (for payload
// inspection), the placements, and the finish cycle.
func ExecuteSchedule(sys *topo.System, cs *core.CommSchedule,
	load func(pl VectorPlacement, chip *ChipHandle)) (*Cluster, []VectorPlacement, int64, error) {

	progs, placements, err := ProgramsFromSchedule(sys, cs)
	if err != nil {
		return nil, nil, 0, err
	}
	cl, err := New(sys, progs)
	if err != nil {
		return nil, nil, 0, err
	}
	if load != nil {
		for _, pl := range placements {
			load(pl, &ChipHandle{cl: cl, chip: pl.SrcChip})
		}
	}
	finish, err := cl.Run()
	return cl, placements, finish, err
}

// ChipHandle gives payload loaders access to one chip's stream registers
// without exposing the whole chip model.
type ChipHandle struct {
	cl   *Cluster
	chip int
}

// SetStream writes a payload vector into the chip's stream register.
func (h *ChipHandle) SetStream(stream int, payload [320]byte) {
	h.cl.chips[h.chip].SetStream(stream, payload)
}
