// Layer benchmark of the recorder work a recorded run repeats, on the
// finished 16-chip recorded ring itself: its spans sit at cycles the
// lockstep chips share and its series on one sampling grid, the shape
// BenchmarkTraceExport's random-cycle recorder does not have.
package runtime

import (
	"io"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/prof"
)

// BenchmarkRecordedRingBarriers runs the recorded ring once, then times
// "WriteTrace" (the full trace export to io.Discard), "SampleSeries" (one
// barrier sample, at the finish cycle, so every iteration overwrites the
// same last sample and the series never grow) and "capture" (View plus
// EncodeView of the last capture's cluster section, the recorder half of
// a checkpoint).
func BenchmarkRecordedRingBarriers(b *testing.B) {
	cl, rec := buildRecordedRing(b, 1)
	finish, err := cl.Run()
	if err != nil {
		b.Fatal(err)
	}
	store := cl.Checkpoints()
	last, err := checkpoint.Decode(store[len(store)-1].Blob)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("WriteTrace", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := rec.WriteTrace(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("SampleSeries", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rec.SampleSeries(finish)
		}
	})
	b.Run("capture", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			checkpoint.EncodeView(last, rec.View())
		}
	})
}

// BenchmarkProfileAnalyze times the post-run profiler, prof.Analyze, on
// the finished recorded ring's state: its spans, counters and series.
func BenchmarkProfileAnalyze(b *testing.B) {
	cl, rec := buildRecordedRing(b, 1)
	if _, err := cl.Run(); err != nil {
		b.Fatal(err)
	}
	st := rec.State()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prof.Analyze(st, prof.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
