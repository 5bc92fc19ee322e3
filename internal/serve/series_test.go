package serve

import (
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestServeSeriesRecorded: with a series cadence armed on the config's
// recorder, RunDegraded lays down rate-labeled queue-depth, backlog, and
// batch-inflight series — and two identical runs export identical bytes.
func TestServeSeriesRecorded(t *testing.T) {
	cfg := Config{
		ServiceUS:         100,
		PipelineDepth:     4,
		ArrivalRatePerSec: 12500,
		Requests:          2000,
		Seed:              9,
	}
	dump := func() string {
		r := obs.New()
		r.SetSeriesCadence(650)
		cfg.Recorder = r
		if _, err := RunDegraded(cfg, nil); err != nil {
			t.Fatal(err)
		}
		st := r.State()
		for _, name := range []string{"serve.queue_depth", "serve.backlog_us", "serve.batch_inflight"} {
			if len(st.Series[name+"{rate=12500}"].Samples) == 0 {
				t.Fatalf("series %s{rate=12500} has no samples", name)
			}
		}
		var b strings.Builder
		if err := r.WriteSeries(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if dump() != dump() {
		t.Error("serve series export differs between identical runs")
	}
}

// TestServeSeriesOffByDefault: without a cadence the serving loop records
// no series — the instrumentation is strictly opt-in.
func TestServeSeriesOffByDefault(t *testing.T) {
	r := obs.New()
	cfg := Config{ServiceUS: 100, PipelineDepth: 4, ArrivalRatePerSec: 5000, Requests: 500, Seed: 1, Recorder: r}
	if _, err := RunDegraded(cfg, nil); err != nil {
		t.Fatal(err)
	}
	if n := r.NumSeries(); n != 0 {
		t.Errorf("cadence disarmed but %d series recorded", n)
	}
}
