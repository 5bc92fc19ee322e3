// Micro-benchmarks for the cadence captures of the 16-chip recorded ring.
// "full" and "delta" time one capture: snapshot build, counter stamping
// and the blob encode from the live recorder. "full" drops the delta
// baseline first, so every chip's SRAM is walked and re-encoded; "delta"
// keeps the baseline the run's own captures armed, the steady-cadence
// path. Both re-prime the recorder with LoadState, which leaves its event
// list at exact capacity, then record one capture instant before the
// timer starts, so the list regrows there and the capture's own instant
// appends in place: the timer covers the capture alone. "run" times the whole recorded ring with its nine
// captures ("cadence") and with the cadence off ("off"): the difference
// is what the captures cost a run.
package runtime

import (
	"testing"

	"repro/internal/obs"
)

func BenchmarkCheckpointCapture(b *testing.B) {
	for _, mode := range []struct {
		name string
		full bool
	}{{"full", true}, {"delta", false}} {
		b.Run(mode.name, func(b *testing.B) {
			cl, rec := buildRecordedRing(b, 1)
			if _, err := cl.Run(); err != nil {
				b.Fatal(err)
			}
			// Each iteration starts from the finished run's recorder and
			// store, so the capture's inputs never grow with b.N.
			base := rec.State()
			n := len(cl.ckpts)
			t := cl.ckpts[n-1].Cycle
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				rec.LoadState(base)
				rec.InstantCycles(obs.PidFabric, checkpointTid, "checkpoint.capture", t)
				cl.ckpts = cl.ckpts[:n]
				if mode.full {
					cl.ckptPrev = nil
				}
				b.StartTimer()
				cl.captureCheckpoint(t)
			}
		})
	}
	b.Run("run", func(b *testing.B) {
		for _, mode := range []struct {
			name  string
			every int64
		}{{"cadence", recRingCadence}, {"off", 0}} {
			b.Run(mode.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					cl, _ := buildRecordedRing(b, 1)
					cl.SetCheckpointCadence(mode.every)
					b.StartTimer()
					if _, err := cl.Run(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	})
}
