package runtime

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/tsp"
)

// TestScheduleLoweringEndToEnd is the reproduction's keystone integration
// test: compile transfers with the SSN scheduler, lower the schedule to
// per-chip machine code, execute it on the simulated cluster, and verify
// (a) no receiver ever underflowed and (b) every payload arrived intact at
// its destination stream.
func TestScheduleLoweringEndToEnd(t *testing.T) {
	sys, err := topo.New(topo.Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	transfers := []core.Transfer{
		{ID: 0, Src: 0, Dst: 7, Vectors: 3},                              // spread-eligible
		{ID: 1, Src: 2, Dst: 5, Vectors: 2},                              // independent
		{ID: 2, Src: 7, Dst: 1, Vectors: 1, After: []core.TransferID{0}}, // chained
	}
	cs, err := core.ScheduleTransfers(sys, transfers)
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.Verify(); err != nil {
		t.Fatal(err)
	}

	payload := func(tr core.TransferID, idx int) [320]byte {
		v := tsp.VectorOf([]float32{float32(tr) * 100, float32(idx)})
		return [320]byte(v)
	}
	cl, placements, finish, err := ExecuteSchedule(sys, cs,
		func(pl VectorPlacement, chip *ChipHandle) {
			chip.SetStream(pl.SrcStream, payload(pl.Transfer, pl.Index))
		})
	if err != nil {
		t.Fatalf("generated schedule faulted: %v", err)
	}
	if finish <= 0 {
		t.Fatal("no cycles elapsed")
	}
	if len(placements) != 6 {
		t.Fatalf("placements = %d, want 6 vectors", len(placements))
	}
	for _, pl := range placements {
		got := cl.Chip(pl.DstChip).Stream(pl.DstStream)
		want := payload(pl.Transfer, pl.Index)
		if got != tsp.Vector(want) {
			t.Fatalf("transfer %d vector %d: payload corrupted at chip %d stream %d",
				pl.Transfer, pl.Index, pl.DstChip, pl.DstStream)
		}
	}
}

// TestScheduleLoweringLargeTensor exercises non-minimal spreading through
// the full stack: a tensor large enough to ride detours must still deliver
// all vectors.
func TestScheduleLoweringLargeTensor(t *testing.T) {
	sys, err := topo.New(topo.Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	cs, err := core.ScheduleTransfers(sys, []core.Transfer{
		{ID: 0, Src: 0, Dst: 4, Vectors: 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	// 40 vectors > crossover: multiple paths in use.
	paths := map[int]bool{}
	for _, s := range cs.Slots {
		paths[s.Route.Path.Hops()] = true
	}
	_, placements, _, err := ExecuteSchedule(sys, cs, func(pl VectorPlacement, chip *ChipHandle) {
		chip.SetStream(pl.SrcStream, [320]byte(tsp.VectorOf([]float32{float32(pl.Index)})))
	})
	if err != nil {
		t.Fatalf("lowered spread schedule faulted: %v", err)
	}
	if len(placements) != 40 {
		t.Fatal("vector count")
	}
}

// TestScheduleLoweringCrossNode pushes a schedule through multi-hop
// inter-node routes.
func TestScheduleLoweringCrossNode(t *testing.T) {
	sys, err := topo.New(topo.Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	cs, err := core.ScheduleTransfers(sys, []core.Transfer{
		{ID: 0, Src: 0, Dst: 15, Vectors: 4},
		{ID: 1, Src: 9, Dst: 3, Vectors: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, placements, _, err := ExecuteSchedule(sys, cs, func(pl VectorPlacement, chip *ChipHandle) {
		chip.SetStream(pl.SrcStream, [320]byte(tsp.VectorOf([]float32{7, float32(pl.Index)})))
	})
	if err != nil {
		t.Fatalf("cross-node schedule faulted: %v", err)
	}
	for _, pl := range placements {
		got := cl.Chip(pl.DstChip).StreamFloats(pl.DstStream)
		if got[0] != 7 || got[1] != float32(pl.Index) {
			t.Fatalf("vector %d/%d payload wrong: %v", pl.Transfer, pl.Index, got[:2])
		}
	}
}

// TestProgramsFromScheduleDeterministic: identical schedules lower to
// byte-identical binaries.
func TestProgramsFromScheduleDeterministic(t *testing.T) {
	sys, err := topo.New(topo.Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	mk := func() []string {
		cs, err := core.ScheduleTransfers(sys, []core.Transfer{
			{ID: 0, Src: 0, Dst: 3, Vectors: 5},
			{ID: 1, Src: 1, Dst: 3, Vectors: 5},
		})
		if err != nil {
			t.Fatal(err)
		}
		progs, _, err := ProgramsFromSchedule(sys, cs)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(progs))
		for i, p := range progs {
			if p != nil {
				out[i] = string(isa.EncodeProgram(p))
			}
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("chip %d binaries differ between identical compiles", i)
		}
	}
}

// TestProgramsFromSchedulePinned pins the lowered program bytes of 15
// seeded transfer sets, five on each of 1, 2 and 3 nodes: a SHA-256 over
// each chip's isa.EncodeProgram bytes in chip order (a zero byte for a
// chip with no program). It covers multi-hop routes, spread vectors and
// chained transfers, so it pins both the link index each SEND and RECV
// names and the NOP padding between them.
func TestProgramsFromSchedulePinned(t *testing.T) {
	// want[nodes-1][seed-1]
	want := [3][5]string{
		{ // 1 node
			"02ce6e92ae42fb1df7a835a19fe50071398cbc75d765817c26778f9ab6ce43ab",
			"162c18a79894ddc2a99522747559a4c438b6c013ee745037a89efc1896747613",
			"de706a6506614bf2ba6cdb5752dad98af836e88cba0ececcb02ff2963da9b205",
			"71839b21be7fed800c754a3c97a5364ca98d990721aa3f9aa55012011d3a9516",
			"a670682c0ca4e6aff3ec605ce84c1955f7497d11762fd196af03ecbe05ac4cf4",
		},
		{ // 2 nodes
			"af85e7817ed5af6a2fa0f82a154ece0cbbc1260cd7a4b3cbaa3abddac5916ec1",
			"8d92517f6b249640d893d6b09f798dad2f6a5ef9294b782360f0d8cc2aa59c9f",
			"f99a29dc773a2436b4fbba20d641823ea605836c727079245ffe66deafc04ca2",
			"e76050d19fea61873c22520903d56aa1516786ca9a8fd9e7bff2ee07f0b6fe80",
			"15c8c91e57c1189e96d033af248cbfd76a59c674f8d8e5a8482408a5069bc8f9",
		},
		{ // 3 nodes
			"0116b443a1b8c08ad0ac40a11f89a7795912b0dd1146c38f953c335964c8defb",
			"df6d64ff4aeb8610a767824459f724c087396b2670bcdc92fb2f5b8ee0b148fa",
			"eef429a0a75f5cb556d2e76f2ab92f15c2d33c66cc945999c9e91ce7bf6e5408",
			"92a8a192767396d0417092a9ef284b5943d80bafc3058440d4da7c06234c04b7",
			"0d5095d5a39fdefad8871300443516060247913b46218f1873501c9c60f563e2",
		},
	}
	multiHop := 0
	for nodes := 1; nodes <= 3; nodes++ {
		sys, err := topo.New(topo.Config{Nodes: nodes})
		if err != nil {
			t.Fatal(err)
		}
		for seed := 1; seed <= 5; seed++ {
			rng := sim.NewRNG(uint64(seed))
			transfers := make([]core.Transfer, 4+rng.Intn(8))
			for i := range transfers {
				src := rng.Intn(sys.NumTSPs())
				dst := (src + 1 + rng.Intn(sys.NumTSPs()-1)) % sys.NumTSPs()
				transfers[i] = core.Transfer{
					ID: core.TransferID(i), Src: topo.TSPID(src), Dst: topo.TSPID(dst),
					Vectors: 1 + rng.Intn(6), Earliest: int64(rng.Intn(100)),
				}
				if i > 0 && rng.Intn(3) == 0 {
					transfers[i].After = []core.TransferID{core.TransferID(rng.Intn(i))}
				}
			}
			cs, err := core.ScheduleTransfers(sys, transfers)
			if err != nil {
				t.Fatal(err)
			}
			for _, slot := range cs.Slots {
				if len(slot.Route.Links) > 1 {
					multiHop++
				}
			}
			progs, _, err := ProgramsFromSchedule(sys, cs)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			for _, p := range progs {
				if p == nil {
					h.Write([]byte{0})
					continue
				}
				h.Write(isa.EncodeProgram(p))
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != want[nodes-1][seed-1] {
				t.Errorf("nodes=%d seed=%d: programs SHA-256 = %s, want %s", nodes, seed, got, want[nodes-1][seed-1])
			}
		}
	}
	if multiHop == 0 {
		t.Error("no multi-hop vector in any transfer set")
	}
}
