package core

import (
	"testing"
	"testing/quick"

	"repro/internal/route"
	"repro/internal/topo"
)

// Property-based tests over the SSN scheduler: random transfer lists must
// always compile into verified, lossless, dependency-respecting schedules.

// randomTransfers decodes a byte string into a small transfer task list
// with random endpoints, sizes, and back-edges-free dependencies.
func randomTransfers(raw []byte) []Transfer {
	var out []Transfer
	for i := 0; i+3 < len(raw) && len(out) < 10; i += 4 {
		src := topo.TSPID(raw[i] % 8)
		dst := topo.TSPID(raw[i+1] % 8)
		if src == dst {
			dst = (dst + 1) % 8
		}
		tr := Transfer{
			ID:      TransferID(len(out)),
			Src:     src,
			Dst:     dst,
			Vectors: int(raw[i+2]%60) + 1,
		}
		// Depend on an earlier transfer sometimes (never on itself or
		// later ones, so the DAG is valid by construction).
		if len(out) > 0 && raw[i+3]%3 == 0 {
			tr.After = []TransferID{TransferID(int(raw[i+3]) % len(out))}
		}
		out = append(out, tr)
	}
	return out
}

func TestPropertyScheduleAlwaysVerifies(t *testing.T) {
	sys := node8(t)
	if err := quick.Check(func(raw []byte) bool {
		transfers := randomTransfers(raw)
		if len(transfers) == 0 {
			return true
		}
		cs, err := ScheduleTransfers(sys, transfers)
		if err != nil {
			return false
		}
		return cs.Verify() == nil
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyScheduleLossless(t *testing.T) {
	sys := node8(t)
	if err := quick.Check(func(raw []byte) bool {
		transfers := randomTransfers(raw)
		if len(transfers) == 0 {
			return true
		}
		cs, err := ScheduleTransfers(sys, transfers)
		if err != nil {
			return false
		}
		// Every vector of every transfer has exactly one slot.
		want := 0
		for _, tr := range transfers {
			want += tr.Vectors
		}
		if len(cs.Slots) != want {
			return false
		}
		// Every slot's route starts at its transfer's src and ends at
		// its dst.
		byID := map[TransferID]Transfer{}
		for _, tr := range transfers {
			byID[tr.ID] = tr
		}
		for _, s := range cs.Slots {
			tr := byID[s.Transfer]
			p := s.Route.Path
			if p[0] != tr.Src || p[len(p)-1] != tr.Dst {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyDependenciesRespected(t *testing.T) {
	sys := node8(t)
	if err := quick.Check(func(raw []byte) bool {
		transfers := randomTransfers(raw)
		if len(transfers) == 0 {
			return true
		}
		cs, err := ScheduleTransfers(sys, transfers)
		if err != nil {
			return false
		}
		arrival := map[TransferID]int64{}
		depart := map[TransferID]int64{}
		for _, tr := range cs.Transfers {
			arrival[tr.ID] = tr.Arrival
			depart[tr.ID] = tr.Depart
		}
		for _, tr := range transfers {
			for _, dep := range tr.After {
				if depart[tr.ID] < arrival[dep] {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyMakespanIsMaxArrival(t *testing.T) {
	sys := node8(t)
	if err := quick.Check(func(raw []byte) bool {
		transfers := randomTransfers(raw)
		if len(transfers) == 0 {
			return true
		}
		cs, err := ScheduleTransfers(sys, transfers)
		if err != nil {
			return false
		}
		var max int64
		for _, s := range cs.Slots {
			if s.Arrival > max {
				max = s.Arrival
			}
		}
		return cs.Makespan == max
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySharedSplitConservesVectors(t *testing.T) {
	if err := quick.Check(func(v16 uint16, k8, s8 uint8) bool {
		v := int(v16 % 5000)
		k := int(k8 % 8)
		shared := int(s8%6) + 1
		s := route.OptimalSplitShared(v, k, shared)
		total := s.Minimal
		for _, n := range s.NonMinimal {
			if n < 0 {
				return false
			}
			total += n
		}
		if total != v {
			return false
		}
		// Never worse than minimal-only.
		return s.CompletionCycles() <= route.PathCompletionCycles(1, v) || v == 0
	}, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}
