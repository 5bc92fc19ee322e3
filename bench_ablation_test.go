// Ablation benchmarks: quantify the design choices the paper argues for by
// turning them off. Each benchmark reports both sides as custom metrics.
package repro_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/route"
	"repro/internal/topo"
	"repro/internal/workloads"
)

// BenchmarkAblationNonMinimalSpreading compares a large tensor's delivery
// with §4.3 spreading on versus minimal-only routing.
func BenchmarkAblationNonMinimalSpreading(b *testing.B) {
	sys, err := topo.New(topo.Config{Nodes: 1})
	if err != nil {
		b.Fatal(err)
	}
	const vectors = 2000
	var spread, minimal int64
	for i := 0; i < b.N; i++ {
		csS, err := core.ScheduleTransfers(sys, []core.Transfer{
			{ID: 0, Src: 0, Dst: 7, Vectors: vectors},
		})
		if err != nil {
			b.Fatal(err)
		}
		csM, err := core.ScheduleTransfers(sys, []core.Transfer{
			{ID: 0, Src: 0, Dst: 7, Vectors: vectors, MinimalOnly: true},
		})
		if err != nil {
			b.Fatal(err)
		}
		spread, minimal = csS.Makespan, csM.Makespan
	}
	b.ReportMetric(float64(spread), "spread-cycles")
	b.ReportMetric(float64(minimal), "minimal-cycles")
	b.ReportMetric(float64(minimal)/float64(spread), "speedup")
}

// BenchmarkAblationSharedSplit compares converging transfers with the
// shared-detour split against naive exclusive spreading (every sender
// greedily using all detours and colliding in the reservation tables).
func BenchmarkAblationSharedSplit(b *testing.B) {
	sys, err := topo.New(topo.Config{Nodes: 1})
	if err != nil {
		b.Fatal(err)
	}
	mk := func(shared bool) int64 {
		var transfers []core.Transfer
		senders := map[topo.TSPID]bool{1: true, 2: true, 3: true, 4: true}
		for i, src := range []topo.TSPID{1, 2, 3, 4} {
			tr := core.Transfer{ID: core.TransferID(i), Src: src, Dst: 0, Vectors: 1500}
			if shared {
				tr.SharedBy = 4
				tr.Intermediate = func(x topo.TSPID) bool { return !senders[x] }
			}
			transfers = append(transfers, tr)
		}
		cs, err := core.ScheduleTransfers(sys, transfers)
		if err != nil {
			b.Fatal(err)
		}
		return cs.Makespan
	}
	var withShared, without int64
	for i := 0; i < b.N; i++ {
		withShared = mk(true)
		without = mk(false)
	}
	b.ReportMetric(float64(withShared), "shared-split-cycles")
	b.ReportMetric(float64(without), "greedy-cycles")
}

// BenchmarkAblationScheduledVsDynamic drives identical traffic through the
// scheduled fabric and the dynamic baseline and compares completion times:
// determinism costs nothing in throughput (the schedule packs slots as
// tightly as the FIFO network does) while removing all variance.
func BenchmarkAblationScheduledVsDynamic(b *testing.B) {
	sys, err := topo.New(topo.Config{Nodes: 1})
	if err != nil {
		b.Fatal(err)
	}
	routeA := append(sys.Between(0, 1), sys.Between(1, 3)[0])
	routeB := sys.Between(1, 3)
	const flows = 200
	var dynLast, ssnLast int64
	for i := 0; i < b.N; i++ {
		d := fabric.NewDynamic(sys, 1)
		for v := 0; v < flows; v++ {
			d.Inject(v, routeA, int64(v)*2*route.SlotCycles)
			d.Inject(1000+v, routeB, int64(v)*2*route.SlotCycles+route.HopCycles)
		}
		dynLast = 0
		for _, del := range d.Run() {
			if del.Arrival > dynLast {
				dynLast = del.Arrival
			}
		}
		s := fabric.NewScheduled()
		ssnLast = 0
		for v := 0; v < flows; v++ {
			slotA := s.NextFreeSlot(routeA, int64(v)*2*route.SlotCycles)
			a1, err := s.ScheduleVector(routeA, slotA)
			if err != nil {
				b.Fatal(err)
			}
			slotB := s.NextFreeSlot(routeB, int64(v)*2*route.SlotCycles+route.HopCycles)
			a2, err := s.ScheduleVector(routeB, slotB)
			if err != nil {
				b.Fatal(err)
			}
			if a1 > ssnLast {
				ssnLast = a1
			}
			if a2 > ssnLast {
				ssnLast = a2
			}
		}
	}
	b.ReportMetric(float64(dynLast), "dynamic-makespan-cycles")
	b.ReportMetric(float64(ssnLast), "ssn-makespan-cycles")
}

// BenchmarkAblationFlyByReduce compares the streamed (fly-by) reduction
// model against a serial accumulate-after-arrival model for the 8-way
// All-Reduce: the chained-functional-unit design is what lets the TSP
// saturate its links.
func BenchmarkAblationFlyByReduce(b *testing.B) {
	const bytes = 4 << 20
	var flyby, serial int64
	for i := 0; i < b.N; i++ {
		flyby = workloads.NodeAllReduceAnalyticCycles(bytes)
		// Serial model: each phase is followed by 7 shard-sized VXM
		// accumulation passes.
		shardVecs := int64((bytes/8 + 319) / 320)
		serial = flyby + 2*7*shardVecs*2
	}
	b.ReportMetric(float64(flyby), "flyby-cycles")
	b.ReportMetric(float64(serial), "serial-reduce-cycles")
	b.ReportMetric(float64(serial)/float64(flyby), "flyby-speedup")
}

// BenchmarkAblationCompilerPartitioner re-reports Fig 20 as an ablation:
// movement-aware placement + overlap versus FLOP-only balancing.
func BenchmarkAblationCompilerPartitioner(b *testing.B) {
	var res *workloads.Fig20Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = workloads.Fig20(nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.UnoptimizedPeriodUS, "flop-balanced-period-us")
	b.ReportMetric(res.OptimizedPeriodUS, "movement-aware-period-us")
}
