// The hotpath experiment measures the executor's per-instruction hot loop
// from the CLI — the same workload grid as the repo's BenchmarkClusterRun,
// reported as simulated cycles per wall-second. Combined with -cpuprofile
// it reproduces the profile the lane-typed fast path was built against:
//
//	tspsim -exp hotpath -cpuprofile /tmp/hot.prof
//	go tool pprof -top tspsim /tmp/hot.prof
//
// The -workers flag sets how many goroutines Run spreads the clean
// fabric's independent chip groups over; every setting produces
// byte-identical cluster results, so the printed checksum line must not
// change across worker counts or runs.
package main

import (
	"fmt"
	"time"

	"repro/internal/mem"
	rtime "repro/internal/runtime"
	"repro/internal/topo"
	"repro/internal/tsp"
)

// hotpathCase is one cell of the workload grid.
type hotpathCase struct {
	name     string
	pipeline bool
	nodes    int
}

// buildHotpathCluster constructs and preloads one measurement cluster,
// mirroring the repo benchmark's setup (8 waves / 7 rounds, 2 matmuls).
func buildHotpathCluster(hc hotpathCase) (*rtime.Cluster, error) {
	const waves, matmuls, rounds = 8, 2, 7
	sys, err := topo.New(topo.Config{Nodes: hc.nodes})
	if err != nil {
		return nil, err
	}
	var cl *rtime.Cluster
	if hc.pipeline {
		pp, err := rtime.PipelinePrograms(sys, waves, matmuls)
		if err != nil {
			return nil, err
		}
		cl, err = newCluster(sys, pp)
		if err != nil {
			return nil, err
		}
	} else {
		rp, err := rtime.RingAllReducePrograms(sys, rounds, matmuls)
		if err != nil {
			return nil, err
		}
		cl, err = newCluster(sys, rp)
		if err != nil {
			return nil, err
		}
	}
	for c := 0; c < sys.NumTSPs(); c++ {
		v := tsp.VectorOf([]float32{float32(c + 1), 0.5 * float32(c), -float32(c % 3), 2})
		if hc.pipeline {
			cl.Chip(c).SetStream(rtime.PipeBias, v)
			if c%topo.TSPsPerNode == 0 {
				for w := 0; w < waves; w++ {
					in := tsp.VectorOf([]float32{float32(c + w + 1)})
					cl.Chip(c).Mem.Write(mem.Addr{Offset: w}, in[:])
				}
			}
		} else {
			cl.Chip(c).SetStream(rtime.RingCur, v)
			cl.Chip(c).SetStream(rtime.RingAcc, v)
		}
	}
	return cl, nil
}

// hotpath runs every grid cell a few times and reports the median-free
// simple best-of throughput (the figure least polluted by scheduler noise
// on a shared machine), plus a result checksum proving the functional
// outputs are independent of the executor.
func hotpath() error {
	cases := []hotpathCase{
		{"allreduce/8chip", false, 1},
		{"allreduce/64chip", false, 8},
		{"pipeline/8chip", true, 1},
		{"pipeline/64chip", true, 8},
	}
	const reps = 3
	fmt.Printf("%-18s %10s %14s %10s\n", "workload", "cycles", "wall(ms)", "Mcyc/s")
	for _, hc := range cases {
		bestNS := int64(1 << 62)
		var finish int64
		var sum float64
		for r := 0; r < reps; r++ {
			cl, err := buildHotpathCluster(hc)
			if err != nil {
				return err
			}
			start := time.Now()
			f, err := cl.Run()
			if err != nil {
				return err
			}
			ns := time.Since(start).Nanoseconds()
			if ns < bestNS {
				bestNS = ns
			}
			finish = f
			// Functional checksum: lane 0 of the result register on chip 0.
			if hc.pipeline {
				last := topo.TSPsPerNode - 1
				out := cl.Chip(last).StreamFloats(rtime.PipeData)
				sum = float64(out[0])
			} else {
				out := cl.Chip(0).StreamFloats(rtime.RingAcc)
				sum = float64(out[0])
			}
		}
		mcycs := float64(finish) / (float64(bestNS) / 1e9) / 1e6
		fmt.Printf("%-18s %10d %14.3f %10.2f   result[0]=%g\n",
			hc.name, finish, float64(bestNS)/1e6, mcycs, sum)
	}
	return nil
}
