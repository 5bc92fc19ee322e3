package fleet

import "testing"

// BenchmarkFleetRun times one fleet.Run of the full-stack stressed fleet
// (14 days, seed 1, about 484k requests) and reports routed requests per
// second of Run.
func BenchmarkFleetRun(b *testing.B) {
	cfg := stressedFullStack(1)
	var requests int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		requests += rep.Requests
	}
	b.ReportMetric(float64(requests)/b.Elapsed().Seconds(), "requests/s")
}
