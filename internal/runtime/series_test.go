package runtime

import (
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/obs"
	"repro/internal/route"
)

// seriesDump runs f with a fresh recorder at the given series cadence,
// which f attaches to what it builds, and returns the series JSON, series
// CSV, trace, and metrics dumps.
func seriesDump(t *testing.T, cadence int64, f func(rec *obs.Recorder)) (series, csv, trace, metrics string) {
	t.Helper()
	r := obs.New()
	r.SetSeriesCadence(cadence)
	f(r)
	var sb, cb strings.Builder
	if err := r.WriteSeries(&sb); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteSeriesCSV(&cb); err != nil {
		t.Fatal(err)
	}
	trace, metrics = dumpRecorder(t, r)
	return sb.String(), cb.String(), trace, metrics
}

// TestSeriesWorkerInvariance is the tentpole invariant: the barrier-
// sampled series export — including the instantaneous mailbox-depth
// gauges — is byte-identical across repeated runs and across worker
// counts, on both canonical workloads. So are the trace (with its
// "ph":"C" counter track) and the flat metrics dump.
func TestSeriesWorkerInvariance(t *testing.T) {
	const cadence = 2 * route.HopCycles
	workloads := []struct {
		name  string
		build func(workers int) *Cluster
	}{
		{"ring", func(w int) *Cluster { return buildRing(t, 2, 7, 2, w) }},
		{"pipeline", func(w int) *Cluster { return buildPipeline(t, 1, 6, 2, w) }},
	}
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			var ref [4]string
			var refFinish int64
			for i, workers := range []int{1, 1, 2, 8} {
				var finish int64
				s, c, tr, m := seriesDump(t, cadence, func(rec *obs.Recorder) {
					cl := wl.build(workers)
					cl.SetRecorder(rec)
					var err error
					finish, err = cl.Run()
					if err != nil {
						t.Fatalf("workers=%d: %v", workers, err)
					}
				})
				if i == 0 {
					ref = [4]string{s, c, tr, m}
					refFinish = finish
					if !strings.Contains(s, "runtime.inflight_vectors") ||
						!strings.Contains(s, "runtime.mailbox_depth{chip=0}") ||
						!strings.Contains(s, "tsp.busy_cycles") ||
						!strings.Contains(s, "tsp.stall_cycles") ||
						!strings.Contains(s, "runtime.link_slot_cycles") {
						t.Fatalf("series export missing expected metrics:\n%.600s", s)
					}
					if !strings.Contains(tr, `"ph":"C"`) {
						t.Error("trace missing series counter events")
					}
					continue
				}
				if finish != refFinish {
					t.Errorf("workers=%d finish %d != %d", workers, finish, refFinish)
				}
				for j, got := range []string{s, c, tr, m} {
					if got != ref[j] {
						kind := []string{"series JSON", "series CSV", "trace", "metrics"}[j]
						t.Errorf("workers=%d: %s differs from sequential run", workers, kind)
					}
				}
			}
		})
	}
}

// TestSeriesCadenceRoutesSequential: arming only a series cadence (no
// workers, no checkpoints) must route Run to the sequential executor,
// whose heap barriers take the samples — otherwise none would ever be
// taken.
func TestSeriesCadenceRoutesSequential(t *testing.T) {
	r := obs.New()
	r.SetSeriesCadence(route.HopCycles)
	cl := buildRing(t, 2, 7, 1, 1)
	cl.SetRecorder(r)
	if cl.seriesEvery != route.HopCycles {
		t.Fatalf("cluster did not inherit cadence from recorder: %d", cl.seriesEvery)
	}
	finish, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := cl.Executor(), (Executor{"sequential", "series cadence", 1}); got != want {
		t.Errorf("Executor() = %+v, want %+v", got, want)
	}
	samples := r.State().Series["runtime.inflight_vectors"].Samples
	if len(samples) < 2 {
		t.Fatalf("only %d samples recorded", len(samples))
	}
	// The epilogue stamps one final sample at the finish cycle.
	if last := samples[len(samples)-1]; last.Cycle != finish {
		t.Errorf("last sample at cycle %d, want finish %d", last.Cycle, finish)
	}
}

// TestSeriesCheckpointRestoreEquivalence: a run restored from a mid-run
// checkpoint finishes with a byte-identical series export — the snapshot
// carries the series samples taken up to the capture barrier, and the
// restored executor resumes sampling on the same grid.
func TestSeriesCheckpointRestoreEquivalence(t *testing.T) {
	const cadence = 650
	r := obs.New()
	r.SetSeriesCadence(cadence)
	straight := buildRing(t, 2, 7, 1, 1)
	straight.SetRecorder(r)
	straight.SetCheckpointCadence(cadence)
	if _, err := straight.Run(); err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	if err := r.WriteSeries(&want); err != nil {
		t.Fatal(err)
	}
	store := straight.Checkpoints()
	if len(store) < 2 {
		t.Fatalf("straight run captured %d checkpoints", len(store))
	}

	snap, err := checkpoint.Decode(store[len(store)/2].Blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Obs.Series) == 0 {
		t.Fatal("snapshot carries no series")
	}
	for _, workers := range []int{1, 8} {
		r2 := obs.New()
		r2.LoadState(snap.Obs)
		restored := buildRing(t, 2, 7, 1, workers)
		restored.SetRecorder(r2)
		restored.SetCheckpointCadence(cadence)
		if err := restored.RestoreSnapshot(snap); err != nil {
			t.Fatal(err)
		}
		if _, err := restored.Run(); err != nil {
			t.Fatal(err)
		}
		var got strings.Builder
		if err := r2.WriteSeries(&got); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Errorf("workers=%d: restored series dump differs from straight run", workers)
		}
	}
}
