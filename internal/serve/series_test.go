package serve

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestServeSeriesRecorded: with a series cadence armed on the installed
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
		prev := obs.Get()
		r := obs.New()
		r.SetSeriesCadence(650)
		obs.Set(r)
		defer obs.Set(prev)
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
	prev := obs.Get()
	r := obs.New()
	obs.Set(r)
	defer obs.Set(prev)
	cfg := Config{ServiceUS: 100, PipelineDepth: 4, ArrivalRatePerSec: 5000, Requests: 500, Seed: 1}
	if _, err := RunDegraded(cfg, nil); err != nil {
		t.Fatal(err)
	}
	if n := r.NumSeries(); n != 0 {
		t.Errorf("cadence disarmed but %d series recorded", n)
	}
}

// TestSaturationSweepWorkerInvariant: the sweep's results and every
// export of a recorder armed with a series cadence are byte-identical at
// any worker count.
func TestSaturationSweepWorkerInvariant(t *testing.T) {
	type dump struct {
		rs                     []Result
		trace, metrics, series string
	}
	sweep := func(workers int) dump {
		prev := obs.Get()
		r := obs.New()
		r.SetSeriesCadence(650)
		obs.Set(r)
		defer obs.Set(prev)
		rs, err := SaturationSweep(204, 4, []float64{0.2, 0.5, 0.8, 0.95}, 3000, 5, workers)
		if err != nil {
			t.Fatal(err)
		}
		var tr, me, se strings.Builder
		if err := r.WriteTrace(&tr); err != nil {
			t.Fatal(err)
		}
		if err := r.WriteMetrics(&me); err != nil {
			t.Fatal(err)
		}
		if err := r.WriteSeries(&se); err != nil {
			t.Fatal(err)
		}
		if r.NumSeries() == 0 {
			t.Fatal("series cadence armed but no series recorded")
		}
		return dump{rs, tr.String(), me.String(), se.String()}
	}
	want := sweep(1)
	for _, w := range []int{2, 4} {
		got := sweep(w)
		if !reflect.DeepEqual(got.rs, want.rs) {
			t.Errorf("workers=%d: results differ from workers=1", w)
		}
		if got.trace != want.trace {
			t.Errorf("workers=%d: WriteTrace differs from workers=1", w)
		}
		if got.metrics != want.metrics {
			t.Errorf("workers=%d: WriteMetrics differs from workers=1", w)
		}
		if got.series != want.series {
			t.Errorf("workers=%d: WriteSeries differs from workers=1", w)
		}
	}
}
