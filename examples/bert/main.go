// BERT on TSPs: compile BERT-Large onto 4 chips with the movement-aware
// partitioner, inspect the static latency estimate, run the Fig 17 latency
// distribution, and contrast the unoptimized compiler (Fig 20).
package main

import (
	"fmt"
	"log"

	"repro/internal/workloads"
	"repro/tsm"
)

func main() {
	dep, err := tsm.DeployBERT(tsm.BERTLarge(), 4, true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("BERT-Large on 4 TSPs (%d layers, seq %d):\n",
		dep.Config.Layers, dep.Config.Seq)
	fmt.Printf("  static estimate: %.0f µs per inference\n", dep.EstimateMicros())
	fmt.Printf("  activation crossings: %d\n", dep.Partition.Crossings())

	// Latency distribution across 5,000 simulated inferences: all
	// variance comes from the host PCIe side; fabric and compute are
	// cycle-deterministic.
	res, err := workloads.Fig17(5000, 7, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  5,000 runs: p99 %.0f µs, max %.0f µs, estimate error %.2f%%\n",
		res.P99US, res.MaxUS, 100*res.MeanErrorFrac)

	// Fig 20: what the movement-aware compiler buys.
	cmp, err := workloads.Fig20(nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncompiler contrast (4 TSPs): FLOP-balanced period %.0f µs vs movement-aware %.0f µs → +%.0f%% throughput\n",
		cmp.UnoptimizedPeriodUS, cmp.OptimizedPeriodUS, 100*cmp.ThroughputGain)

	// Fig 18: linear scaling.
	fmt.Println("\nencoder scaling (6 encoders per TSP):")
	pts, err := workloads.Fig18()
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range pts {
		fmt.Printf("  %2d TSPs, %2d encoders: %.0f realized TOPs (%.2fx)\n",
			p.TSPs, p.Encoders, p.RealizedTOPs, p.NormalizedThroughput)
	}
}
