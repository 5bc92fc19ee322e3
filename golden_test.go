// Golden regression harness: because every layer of the reproduction is
// deterministic, headline quantities can be pinned *exactly*. A failure
// here means a model or scheduler change shifted results — if the change
// is intentional, update the pins and the corresponding EXPERIMENTS.md
// entries together.
package repro_test

import (
	"math"
	"testing"

	"repro/internal/collective"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/route"
	"repro/internal/topo"
	"repro/internal/workloads"
)

func TestGoldenBandwidthProfile(t *testing.T) {
	pins := []struct {
		nodes int
		gbps  float64
	}{
		{1, 87.5},
		{2, 62.5},
		{33, 50.5769},
		{36, 16.0156},
		{1305, 14.1102},
	}
	for _, p := range pins {
		got := topo.UniformThroughputPerTSP(p.nodes)
		if math.Abs(got-p.gbps) > 0.001 {
			t.Errorf("profile(%d nodes) = %.4f GB/s, pinned %.4f", p.nodes, got, p.gbps)
		}
	}
}

func TestGoldenRoutingConstants(t *testing.T) {
	if route.CrossoverBytes() != 8960 {
		t.Errorf("crossover = %d, pinned 8960", route.CrossoverBytes())
	}
	if got := route.Speedup(1<<20, 7); math.Abs(got-7.1653) > 0.01 {
		t.Errorf("1MB/7-path speedup = %.4f, pinned 7.165", got)
	}
	if route.HopCycles != 650 || route.SlotCycles != 24 {
		t.Error("hop/slot constants moved")
	}
}

func TestGoldenAllReduce(t *testing.T) {
	sys, err := topo.New(topo.Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	r, err := collective.NodeAllReduce(sys, 0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	// 1 MiB → shard 410 vectors → 2·((410−1)·24+650)+2 = 20934 cycles.
	if r.Cycles != 20934 {
		t.Errorf("1MB all-reduce = %d cycles, pinned 20934", r.Cycles)
	}
	if workloads.NodeAllReduceAnalyticCycles(1<<20) != r.Cycles {
		t.Error("analytic form diverged from schedule")
	}
}

func TestGoldenScheduleMakespan(t *testing.T) {
	sys, err := topo.New(topo.Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	cs, err := core.ScheduleTransfers(sys, []core.Transfer{
		{ID: 0, Src: 0, Dst: 1, Vectors: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	// 4 vectors below crossover: back-to-back on one link:
	// 3·24 + 650 = 722.
	if cs.Makespan != 722 {
		t.Errorf("makespan = %d, pinned 722", cs.Makespan)
	}
}

func TestGoldenBERT(t *testing.T) {
	dep, err := workloads.DeployBERT(compiler.BERTLarge(), 4, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Pinned compiler estimate for the 4-TSP BERT-Large deployment.
	if got := dep.EstimateCycles(); got != 865552 {
		t.Errorf("BERT-Large estimate = %d cycles, pinned 865552", got)
	}
	res, err := workloads.Fig20(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.UnoptimizedCrossings != 23 || res.OptimizedCrossings != 3 {
		t.Error("partitioner crossings moved")
	}
	if res.ThroughputGain < 0.25 || res.ThroughputGain > 0.40 {
		t.Errorf("fig20 gain = %.3f, pinned band 0.25-0.40", res.ThroughputGain)
	}
}

func TestGoldenCholesky(t *testing.T) {
	a := [][]float32{{25, 15, -5}, {15, 18, 0}, {-5, 0, 11}}
	_, cycles, err := workloads.RunCholeskyOnChip(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Pinned chip finish cycle for the 3x3 factorization: the static
	// schedule is reproducible to the cycle.
	if cycles != 102 {
		t.Errorf("3x3 Cholesky = %d cycles, pinned 102", cycles)
	}
}

func TestGoldenTopologyInventory(t *testing.T) {
	sys, err := topo.New(topo.Config{Nodes: 36})
	if err != nil {
		t.Fatal(err)
	}
	st := sys.Cables()
	if st.Total != 36*28+4*72+288 {
		t.Errorf("36-node cable count = %d, pinned %d", st.Total, 36*28+4*72+288)
	}
	if st.Optical != 288 {
		t.Errorf("optical = %d, pinned 288", st.Optical)
	}
}
