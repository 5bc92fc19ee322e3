package serve

import (
	"testing"
)

func TestRunLowLoad(t *testing.T) {
	// At 10% load, queueing is negligible: latency ≈ pipeline fill.
	r, err := Run(Config{
		ServiceUS: 204, PipelineDepth: 4,
		ArrivalRatePerSec: 0.1 * 1e6 / 204,
		Requests:          20000, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	fill := 4.0 * 204
	if r.P50US < fill || r.P50US > fill*1.2 {
		t.Fatalf("p50 = %.0f µs, want ≈ fill %.0f", r.P50US, fill)
	}
	if r.Utilization > 0.15 {
		t.Fatalf("utilization %.2f at 10%% load", r.Utilization)
	}
}

func TestRunHighLoadQueues(t *testing.T) {
	low, err := Run(Config{ServiceUS: 204, PipelineDepth: 4,
		ArrivalRatePerSec: 0.3 * 1e6 / 204, Requests: 20000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	high, err := Run(Config{ServiceUS: 204, PipelineDepth: 4,
		ArrivalRatePerSec: 0.95 * 1e6 / 204, Requests: 20000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if high.P99US <= low.P99US*2 {
		t.Fatalf("p99 at 95%% load (%.0f) should blow past 30%% load (%.0f)",
			high.P99US, low.P99US)
	}
	if high.Utilization < 0.85 {
		t.Fatalf("utilization %.2f at 95%% load", high.Utilization)
	}
	// Throughput approaches but does not exceed capacity.
	capacity := 1e6 / 204
	if high.Throughput > capacity*1.01 {
		t.Fatalf("throughput %.0f exceeds capacity %.0f", high.Throughput, capacity)
	}
}

func TestSaturationSweepMonotone(t *testing.T) {
	rs, err := SaturationSweep(204, 4, []float64{0.2, 0.5, 0.8, 0.95}, 20000, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rs); i++ {
		if rs[i].P99US < rs[i-1].P99US {
			t.Fatalf("p99 should rise with load: %.0f then %.0f", rs[i-1].P99US, rs[i].P99US)
		}
		if rs[i].Utilization < rs[i-1].Utilization {
			t.Fatal("utilization should rise with load")
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := Config{ServiceUS: 100, PipelineDepth: 2,
		ArrivalRatePerSec: 5000, Requests: 5000, Seed: 7}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("same-seed serving runs differ")
	}
}

func TestRunValidation(t *testing.T) {
	bads := []Config{
		{ServiceUS: 0, PipelineDepth: 1, ArrivalRatePerSec: 1, Requests: 1},
		{ServiceUS: 1, PipelineDepth: 0, ArrivalRatePerSec: 1, Requests: 1},
		{ServiceUS: 1, PipelineDepth: 1, ArrivalRatePerSec: 0, Requests: 1},
		{ServiceUS: 1, PipelineDepth: 1, ArrivalRatePerSec: 1, Requests: 0},
	}
	for i, cfg := range bads {
		if _, err := Run(cfg); err == nil {
			t.Errorf("config %d should fail", i)
		}
	}
}
