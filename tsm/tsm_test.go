package tsm

import (
	"math"
	"testing"

	"repro/internal/isa"
)

func TestNewSystemSizes(t *testing.T) {
	s, err := NewSystem(Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumTSPs() != 8 {
		t.Fatalf("TSPs = %d", s.NumTSPs())
	}
	if gb := float64(s.GlobalMemoryBytes()) / (1 << 30); gb < 1.7 || gb > 1.8 {
		t.Fatalf("node memory = %.2f GiB, want ~1.72", gb)
	}
	if _, err := NewSystem(Config{Nodes: 0}); err == nil {
		t.Fatal("zero nodes should fail")
	}
	big, err := NewSystem(Config{Nodes: 33})
	if err != nil {
		t.Fatal(err)
	}
	measured, packaging := big.Diameter()
	if measured != 3 || packaging != 3 {
		t.Fatalf("264-TSP diameters = %d/%d, want 3/3", measured, packaging)
	}
}

func TestScheduleTransfersAPI(t *testing.T) {
	s, err := NewSystem(Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	cs, err := s.ScheduleTransfers([]Transfer{
		{ID: 0, Src: 0, Dst: 5, Vectors: 64},
		{ID: 1, Src: 5, Dst: 2, Vectors: 8, After: []TransferID{0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if cs.Makespan <= 0 {
		t.Fatal("empty makespan")
	}
	if len(cs.Transfers) != 2 {
		t.Fatal("transfer count")
	}
}

func TestAllReduceAPI(t *testing.T) {
	one, err := NewSystem(Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	r, err := one.AllReduce(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if r.Participants != 8 || r.BusBandwidthGBps() <= 0 {
		t.Fatalf("result %+v", r)
	}
	two, err := NewSystem(Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := two.AllReduce(256 << 10)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Participants != 16 {
		t.Fatal("hierarchical path not taken")
	}
}

func TestBroadcastAPI(t *testing.T) {
	s, err := NewSystem(Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Broadcast(2, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles <= 0 {
		t.Fatal("no time")
	}
}

func TestCompileGraphAPI(t *testing.T) {
	s, err := NewSystem(Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := NewGraph()
	in := g.AddInput("x", 320*8)
	_, t0 := g.AddOp("a", 0, 500, []TensorID{in}, 320*8)
	g.AddOp("b", 1, 500, []TensorID{t0}, -1)
	os, err := s.CompileGraph(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if os.Makespan <= 1000 {
		t.Fatalf("makespan %d should include transfer time", os.Makespan)
	}
}

func TestClusterAndAssembleAPI(t *testing.T) {
	s, err := NewSystem(Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Assemble("vadd s1 s2 s3\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := s.Cluster([]*Program{prog})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestSystemRecorder: a system built with Config.Recorder records its
// schedules and cluster runs there; one built without records nothing, so
// running the same work on it leaves the first system's counts as they are.
func TestSystemRecorder(t *testing.T) {
	rec := NewRecorder()
	prog, err := Assemble("vadd s1 s2 s3\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{{Nodes: 1, Recorder: rec}, {Nodes: 1}} {
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.ScheduleTransfers([]Transfer{{ID: 0, Src: 0, Dst: 5, Vectors: 64}}); err != nil {
			t.Fatal(err)
		}
		cl, err := s.Cluster([]*Program{prog})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Run(); err != nil {
			t.Fatal(err)
		}
		c := rec.State().Counters
		if c["ssn.transfers"] != 1 || c["tsp.instructions{chip=0,unit=vxm}"] != 1 {
			t.Errorf("recorded system %v: ssn.transfers %d, vxm instructions %d, want 1 and 1",
				cfg.Recorder != nil, c["ssn.transfers"], c["tsp.instructions{chip=0,unit=vxm}"])
		}
	}
}

func TestBandwidthProfileAPI(t *testing.T) {
	pts := BandwidthProfile()
	if len(pts) == 0 {
		t.Fatal("empty profile")
	}
	if pts[len(pts)-1].TSPs != 10440 {
		t.Fatal("profile should reach the full machine")
	}
}

func TestBERTAPI(t *testing.T) {
	dep, err := DeployBERT(BERTLarge(), 4, true)
	if err != nil {
		t.Fatal(err)
	}
	if us := dep.EstimateMicros(); us < 500 || us > 2000 {
		t.Fatalf("BERT-Large estimate %.0f µs", us)
	}
	if BERTBase().Layers != 12 {
		t.Fatal("BERT-Base")
	}
}

func TestTopologyAccessor(t *testing.T) {
	s, err := NewSystem(Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.Topology().NumTSPs() != 8 {
		t.Fatal("topology accessor broken")
	}
}

func TestScheduleTransfersErrorPaths(t *testing.T) {
	s, err := NewSystem(Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ScheduleTransfers([]Transfer{{ID: 0, Src: 0, Dst: 1, Vectors: 0}}); err == nil {
		t.Fatal("zero vectors should fail")
	}
	if _, err := s.ScheduleTransfers([]Transfer{
		{ID: 0, Src: 0, Dst: 1, Vectors: 1, After: []TransferID{1}},
		{ID: 1, Src: 1, Dst: 2, Vectors: 1, After: []TransferID{0}},
	}); err == nil {
		t.Fatal("cycle should fail")
	}
}

func TestFunctionalAllReduceAPI(t *testing.T) {
	inputs := make([][]float32, 8)
	for i := range inputs {
		inputs[i] = []float32{2}
	}
	out, cycles, err := FunctionalAllReduce(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if cycles <= 0 || out[0][0] != 16 {
		t.Fatalf("functional all-reduce: %f at %d cycles", out[0][0], cycles)
	}
}

func TestCholeskyAPI(t *testing.T) {
	a := [][]float32{{25, 15, -5}, {15, 18, 0}, {-5, 0, 11}}
	l, cycles, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	if cycles <= 0 {
		t.Fatal("no cycles")
	}
	want := [][]float32{{5, 0, 0}, {3, 3, 0}, {-1, 1, 3}}
	for i := range want {
		for j := range want[i] {
			if math.Abs(float64(l[i][j]-want[i][j])) > 1e-4 {
				t.Fatalf("L[%d][%d] = %f, want %f", i, j, l[i][j], want[i][j])
			}
		}
	}
}

func TestEncoderAPI(t *testing.T) {
	// Identity-ish weights: zero projections make attention average the
	// values (all zero), so output = input + FFN(input) with zero W1 →
	// output = input.
	h := 4
	zeros := func(r, c int) [][]float32 {
		out := make([][]float32, r)
		for i := range out {
			out[i] = make([]float32, c)
		}
		return out
	}
	p := &EncoderParams{
		Seq: 2, Hidden: h, FFN: 8,
		Wq: zeros(h, h), Wk: zeros(h, h), Wv: zeros(h, h),
		W1: zeros(h, 8), W2: zeros(8, h),
	}
	x := [][]float32{{1, 2, 3, 4}, {5, 6, 7, 8}}
	out, cycles, err := Encoder(p, x)
	if err != nil {
		t.Fatal(err)
	}
	if cycles <= 0 {
		t.Fatal("no cycles")
	}
	for i := range x {
		for l := 0; l < h; l++ {
			if out[i][l] != x[i][l] {
				t.Fatalf("zero-weight encoder should be identity: out[%d][%d]=%f", i, l, out[i][l])
			}
		}
	}
}

// TestFunctionalEntryPointsRejectHostileShapes feeds the functional
// entry points inputs of the wrong shape: each must return an error, not
// panic and not silently drop data.
func TestFunctionalEntryPointsRejectHostileShapes(t *testing.T) {
	vectors := func(n, lanes int) [][]float32 {
		out := make([][]float32, n)
		for i := range out {
			out[i] = make([]float32, lanes)
		}
		return out
	}
	wide := vectors(8, 1)
	wide[3] = make([]float32, 81)
	encoder := func(hidden int) *EncoderParams {
		return &EncoderParams{
			Seq: 2, Hidden: hidden, FFN: 8,
			Wq: vectors(hidden, hidden), Wk: vectors(hidden, hidden), Wv: vectors(hidden, hidden),
			W1: vectors(hidden, 8), W2: vectors(8, hidden),
		}
	}
	wideWq := encoder(4)
	wideWq.Wq[1] = make([]float32, 100)
	shortW2 := encoder(4)
	shortW2.W2[7] = make([]float32, 3)
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"cholesky ragged", func() error { _, _, err := Cholesky([][]float32{{4, 2}, {2}}); return err }},
		{"cholesky wide rows", func() error { _, _, err := Cholesky([][]float32{{4, 2, 1}, {2, 5, 1}}); return err }},
		{"cholesky nil row", func() error { _, _, err := Cholesky([][]float32{{4, 2}, nil}); return err }},
		{"cholesky empty", func() error { _, _, err := Cholesky(nil); return err }},
		{"cholesky 81x81", func() error { _, _, err := Cholesky(vectors(81, 81)); return err }},
		{"all-reduce 81 lanes", func() error { _, _, err := FunctionalAllReduce(wide); return err }},
		{"all-reduce 7 inputs", func() error { _, _, err := FunctionalAllReduce(vectors(7, 1)); return err }},
		{"all-reduce 9 inputs", func() error { _, _, err := FunctionalAllReduce(vectors(9, 1)); return err }},
		{"encoder 6-value token at hidden 4", func() error {
			_, _, err := Encoder(encoder(4), [][]float32{make([]float32, 6), make([]float32, 4)})
			return err
		}},
		{"encoder 3-value token at hidden 4", func() error { _, _, err := Encoder(encoder(4), vectors(2, 3)); return err }},
		{"encoder Wq row 100 wide", func() error { _, _, err := Encoder(wideWq, vectors(2, 4)); return err }},
		{"encoder W2 row 3 wide", func() error { _, _, err := Encoder(shortW2, vectors(2, 4)); return err }},
		{"encoder 3 tokens at seq 2", func() error { _, _, err := Encoder(encoder(4), vectors(3, 4)); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.run(); err == nil {
				t.Error("accepted a malformed input")
			}
		})
	}
}

// TestClusterRejectsMissingLink: the public path from assembler text to a
// cluster reports a send on a link the chip lacks as an error, where a run
// used to panic.
func TestClusterRejectsMissingLink(t *testing.T) {
	s, err := NewSystem(Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Assemble("send 200 s0\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Cluster([]*isa.Program{p}); err == nil {
		t.Fatal("Cluster accepted a send on link 200")
	}
}
