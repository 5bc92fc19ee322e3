// Benchmark for a clean cross-node lowered schedule: every node forwards
// to the next in a ring of nodes, so the static send graph is one
// component and Run takes a single heap at any worker count. It times the
// case the component executor cannot split.
package runtime

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/topo"
	"repro/internal/tsp"
)

// crossNodeRingSchedule lowers rounds of node-to-node transfers on an
// 8-node system: in round r, chip r%8 of node n sends 16 vectors to chip
// (r+3)%8 of node n+1, after that chain's previous round.
func crossNodeRingSchedule(b *testing.B, workers int) *Cluster {
	const nodes, rounds = 8, 256
	sys, err := topo.New(topo.Config{Nodes: nodes})
	if err != nil {
		b.Fatal(err)
	}
	var transfers []core.Transfer
	for r := 0; r < rounds; r++ {
		for n := 0; n < nodes; n++ {
			tr := core.Transfer{
				ID:      core.TransferID(len(transfers)),
				Src:     topo.TSPID(n*topo.TSPsPerNode + r%8),
				Dst:     topo.TSPID((n+1)%nodes*topo.TSPsPerNode + (r+3)%8),
				Vectors: 16,
			}
			if r > 0 {
				tr.After = []core.TransferID{tr.ID - nodes}
			}
			transfers = append(transfers, tr)
		}
	}
	cs, err := core.ScheduleTransfers(sys, transfers)
	if err != nil {
		b.Fatal(err)
	}
	progs, placements, err := ProgramsFromSchedule(sys, cs)
	if err != nil {
		b.Fatal(err)
	}
	cl, err := New(sys, progs)
	if err != nil {
		b.Fatal(err)
	}
	cl.SetWorkers(workers)
	for _, pl := range placements {
		cl.Chip(pl.SrcChip).SetStream(pl.SrcStream, tsp.VectorOf([]float32{float32(pl.Transfer), float32(pl.Index)}))
	}
	return cl
}

func BenchmarkCrossNodeSchedule(b *testing.B) {
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("run/workers=%d", workers), func(b *testing.B) {
			var finish int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cl := crossNodeRingSchedule(b, workers)
				b.StartTimer()
				f, err := cl.Run()
				if err != nil {
					b.Fatal(err)
				}
				finish = f
			}
			b.ReportMetric(float64(finish), "finish-cycles")
		})
	}
}
