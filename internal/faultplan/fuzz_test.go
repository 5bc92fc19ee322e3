package faultplan

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/topo"
)

// eventRecord is the fuzz input's size per event: kind (1 byte), target
// id (2), cycle (2), until (2), BER as float32 bits (4). Narrow fields make
// the fuzzer hit colliding cycles and shared targets; raw bits reach
// negative cycles, out-of-range ids, unknown kinds and non-finite BERs.
const eventRecord = 11

// maxFuzzEvents bounds a decoded plan so the oracle's scans stay cheap.
const maxFuzzEvents = 32

// decodePlan turns fuzz bytes into a plan, eventRecord bytes per event;
// a trailing partial record is ignored. The id addresses whichever of
// Link, Node and Chip the kind reads.
func decodePlan(data []byte) *Plan {
	p := &Plan{}
	for len(data) >= eventRecord && len(p.Events) < maxFuzzEvents {
		id := int16(binary.LittleEndian.Uint16(data[1:]))
		p.Events = append(p.Events, Event{
			Kind:  Kind(int8(data[0])),
			Link:  topo.LinkID(id),
			Node:  topo.NodeID(id),
			Chip:  topo.TSPID(id),
			Cycle: int64(int16(binary.LittleEndian.Uint16(data[3:]))),
			Until: int64(int16(binary.LittleEndian.Uint16(data[5:]))),
			BER:   float64(math.Float32frombits(binary.LittleEndian.Uint32(data[7:]))),
		})
		data = data[eventRecord:]
	}
	return p
}

// FuzzFaultPlanCompile: Validate and Compile never panic and agree on
// which plans are valid, and for every valid plan the compiled index
// answers DeathCycle, LinkDownAt and LinkBERAt exactly as a linear scan
// over the sorted events does, at every event boundary.
func FuzzFaultPlanCompile(f *testing.F) {
	sys, err := topo.New(topo.Config{Nodes: 3})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := decodePlan(data)
		verr := p.Validate(sys)
		c, cerr := p.Compile(sys)
		if (verr == nil) != (cerr == nil) {
			t.Fatalf("Validate error %v, Compile error %v", verr, cerr)
		}
		if cerr != nil {
			return
		}
		sorted := Plan{Events: append([]Event(nil), p.Events...)}
		sorted.Sort()
		if len(c.Events()) != len(sorted.Events) {
			t.Fatalf("compiled %d events, plan has %d", len(c.Events()), len(sorted.Events))
		}

		for chip := 0; chip < sys.NumTSPs(); chip++ {
			tsp := topo.TSPID(chip)
			want, wantOK := int64(0), false
			for _, e := range sorted.Events {
				hit := (e.Kind == NodeDeath && e.Node == tsp.Node()) || (e.Kind == StuckChip && e.Chip == tsp)
				if hit && (!wantOK || e.Cycle < want) {
					want, wantOK = e.Cycle, true
				}
			}
			if got, ok := c.DeathCycle(tsp); ok != wantOK || ok && got != want {
				t.Fatalf("DeathCycle(%d) = %d, %v; scan says %d, %v", chip, got, ok, want, wantOK)
			}
		}

		cycles := []int64{0, math.MaxInt64}
		links := []topo.LinkID{0}
		for _, e := range sorted.Events {
			cycles = append(cycles, e.Cycle-1, e.Cycle, e.Until-1, e.Until)
			if e.Kind == LinkDown || e.Kind == LinkFlap || e.Kind == BERExcursion {
				links = append(links, e.Link)
			}
		}
		for _, l := range links {
			for _, w := range cycles {
				wantDown, wantBER, wantHasBER := false, 0.0, false
				for _, e := range sorted.Events {
					if e.Link != l || !active(e, w) {
						continue
					}
					switch e.Kind {
					case LinkDown, LinkFlap:
						wantDown = true
					case BERExcursion:
						if !wantHasBER {
							wantBER, wantHasBER = e.BER, true
						}
					}
				}
				if got := c.LinkDownAt(l, w); got != wantDown {
					t.Fatalf("LinkDownAt(%d, %d) = %v; scan says %v", l, w, got, wantDown)
				}
				if got, ok := c.LinkBERAt(l, w); got != wantBER || ok != wantHasBER {
					t.Fatalf("LinkBERAt(%d, %d) = %g, %v; scan says %g, %v", l, w, got, ok, wantBER, wantHasBER)
				}
			}
		}
	})
}
