// Micro-benchmark for one cadence capture of the 16-chip recorded ring:
// snapshot build, single-pass blob encode, counter stamping and the
// recorder state export. "full" drops the delta baseline first, so every
// chip's SRAM is walked and re-encoded; "delta" keeps the baseline the
// run's own captures armed, the steady-cadence path.
package runtime

import (
	"testing"

	"repro/internal/obs"
)

func BenchmarkCheckpointCapture(b *testing.B) {
	prev := obs.Get()
	defer obs.Set(prev)
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
				cl.ckpts = cl.ckpts[:n]
				if mode.full {
					cl.ckptPrev = nil
				}
				b.StartTimer()
				cl.captureCheckpoint(t)
			}
		})
	}
}
