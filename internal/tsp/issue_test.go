package tsp

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/isa"
)

// issueMarks is a C2C that logs every Send and Transmit in call order. The
// random programs below give each one its own link number, so the log is
// the order and cycle in which StepUntil issued those instructions.
type issueMarks struct{ log []issueMark }

type issueMark struct {
	mark  int
	cycle int64
}

func (m *issueMarks) Send(link int, _ *Vector, cycle int64) {
	m.log = append(m.log, issueMark{link, cycle})
}

func (m *issueMarks) Recv(int, int64, *Vector) bool { return false }

func (m *issueMarks) Transmit(link int, cycle int64) {
	m.log = append(m.log, issueMark{link, cycle})
}

// randomIssueProgram mixes the control ops that move cursors in different
// ways (SYNC, NOTIFY, DESKEW, RUNTIME_DESKEW, HALT) with NOP padding and
// Send/Transmit marks, over units of which about one in four is empty.
// DESKEW's epoch boundaries and NOTIFY's shared wake make many units ready
// at the same cycle, so ties are common.
func randomIssueProgram(r *diffRNG) *isa.Program {
	p := &isa.Program{}
	mark := uint16(0)
	for u := isa.Unit(0); u < isa.NumUnits; u++ {
		if r.intn(4) == 0 {
			continue
		}
		for range r.intn(24) {
			in := isa.Instruction{Op: isa.Nop, Imm: int32(r.intn(4))}
			switch r.intn(16) {
			case 0, 1:
				in = isa.Instruction{Op: isa.Sync}
			case 2:
				in = isa.Instruction{Op: isa.Notify}
			case 3:
				in = isa.Instruction{Op: isa.Deskew}
			case 4:
				in = isa.Instruction{Op: isa.RuntimeDeskew, Imm: int32(r.intn(12)) - 2}
			case 5:
				if r.intn(4) == 0 {
					in = isa.Instruction{Op: isa.Halt}
				}
			case 6, 7, 8, 9:
				in = isa.Instruction{Op: isa.Send, A: mark, B: uint16(r.intn(NumStreams))}
				mark++
			case 10:
				in = isa.Instruction{Op: isa.Transmit, A: mark}
				mark++
			}
			p.AppendTo(u, in)
		}
	}
	return p
}

// scanAllUnits is the issue selection NextIssue replaced: a scan over all
// six units, earliest cursor first, ties to the lowest unit.
func scanAllUnits(c *Chip) (isa.Unit, int64, bool) {
	best := isa.NumUnits
	var bestT int64
	for u := isa.Unit(0); u < isa.NumUnits; u++ {
		if c.unitDone(u) || c.parked[u] {
			continue
		}
		if best == isa.NumUnits || c.cursor[u] < bestT {
			best, bestT = u, c.cursor[u]
		}
	}
	return best, bestT, best != isa.NumUnits
}

type issue struct {
	u     isa.Unit
	pc    int
	cycle int64
}

// runByScan runs the chip one instruction at a time, each chosen by next
// and dispatched through execute, except that a NOP retires by moving its
// unit's cursor, then classifies a deadlock as Run does. It returns the
// (unit, pc, cycle) issue sequence.
func runByScan(c *Chip, next func(*Chip) (isa.Unit, int64, bool)) []issue {
	var seq []issue
	for c.fault == nil {
		u, t, ok := next(c)
		if !ok {
			break
		}
		seq = append(seq, issue{u, c.pc[u], t})
		in := c.prog.Streams[u][c.pc[u]]
		c.pc[u]++
		if in.Op == isa.Nop {
			c.cursor[u] = t + isa.Latency(in)
			continue
		}
		c.execute(u, in, t)
	}
	if c.fault == nil && !c.Done() && c.anyParked() {
		c.setFault(&Fault{Kind: ErrDeadlock, Cycle: c.FinishCycle()})
	}
	return seq
}

func issued(c *Chip) (n int) {
	for _, pc := range c.pc {
		n += pc
	}
	return n
}

// TestIssueOrderMatchesAllUnitScan checks NextIssue's non-empty-unit list
// and StepUntil's inline NOP retire against the all-unit scan on random
// programs: NextIssue must pick the scan's (unit, pc, cycle) at every
// step; StepUntil at random horizons must stop where the scan's next
// issue is, and with Run after it must issue every Send and Transmit in
// the scan's order at the scan's cycles and end in the same state and
// fault.
func TestIssueOrderMatchesAllUnitScan(t *testing.T) {
	delta := func(cycle int64) int64 { return cycle%7 - 3 }
	for seed := uint64(0); seed < 2000; seed++ {
		prog := randomIssueProgram(&diffRNG{s: seed})
		build := func() (*Chip, *issueMarks) {
			m := &issueMarks{}
			c := New(0, prog, m)
			c.SetDeskewDelta(delta)
			return c, m
		}
		oracle, oracleMarks := build()
		want := runByScan(oracle, scanAllUnits)

		listed, _ := build()
		got := runByScan(listed, (*Chip).NextIssue)
		for i := range max(len(got), len(want)) {
			if i >= len(got) || i >= len(want) || got[i] != want[i] {
				t.Fatalf("seed %d: issue %d differs (NextIssue %d issues, scan %d)\nNextIssue %v\nscan      %v",
					seed, i, len(got), len(want), got[i:min(i+4, len(got))], want[i:min(i+4, len(want))])
			}
		}

		batched, marks := build()
		r := &diffRNG{s: ^seed}
		for h := int64(0); ; h += int64(r.intn(300)) {
			next, ok := batched.StepUntil(h)
			if !ok {
				break
			}
			n := issued(batched)
			if n >= len(want) || next != want[n].cycle || next < h {
				t.Fatalf("seed %d: StepUntil(%d) stopped at cycle %d after %d issues; scan: %v", seed, h, next, n, want[min(n, len(want)-1)])
			}
		}
		batched.Run()
		if !reflect.DeepEqual(marks.log, oracleMarks.log) {
			t.Fatalf("seed %d: marks\n%v\nscan\n%v", seed, marks.log, oracleMarks.log)
		}
		sameEnd(t, seed, oracle, listed, batched)
	}
}

// captured returns a full capture of c's state.
func captured(c *Chip) *ChipState {
	s := new(ChipState)
	c.CaptureState(s)
	return s
}

// sameEnd compares finished chips' faults and captured states with
// want's. A faulted chip refuses CaptureState, so the faults are cleared
// once compared.
func sameEnd(t *testing.T, seed uint64, want *Chip, chips ...*Chip) {
	t.Helper()
	wf := want.fault
	for _, c := range chips {
		if (wf == nil) != (c.fault == nil) || wf != nil && *wf != *c.fault {
			t.Fatalf("seed %d: fault %v, scan %v", seed, c.fault, wf)
		}
		c.fault = nil
	}
	want.fault = nil
	ws := captured(want)
	for _, c := range chips {
		gs := captured(c)
		// Units and the masks are arrays, which == compares much faster
		// than reflect does; the rows compare as bits.
		if gs.Units != ws.Units || gs.StreamMask != ws.StreamMask || gs.RowMask != ws.RowMask ||
			!slices.Equal(gs.Streams, ws.Streams) || !sameRows(gs.Rows, ws.Rows) || !reflect.DeepEqual(gs.Mem, ws.Mem) {
			t.Fatalf("seed %d: final state differs: units %+v, scan %+v", seed, gs.Units, ws.Units)
		}
	}
}

// sameRows reports whether two weight-row lists hold the same bits.
func sameRows(a, b [][FloatLanes]float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		for j := range a[i] {
			if math.Float32bits(a[i][j]) != math.Float32bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}
