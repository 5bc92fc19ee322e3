package runtime

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/obs"
	"repro/internal/topo"
)

// The recorded-ring shape: 2 nodes (16 chips), 56 rounds of 2 matmuls,
// series sampling every 1300 cycles, a checkpoint every 5200 and every
// link at BER 1e-6 so deliveries pass through FEC. No stream preload: the
// blobs depend on the programs, the cadences and the error seed alone.
const (
	recRingRounds  = 56
	recRingMatmuls = 2
	recRingSeries  = 1300
	recRingCadence = 5200
	recRingBER     = 1e-6
	recRingSeed    = 1
)

// buildRecordedRing builds the recorded ring under a fresh recorder and
// returns both.
func buildRecordedRing(tb testing.TB, workers int) (*Cluster, *obs.Recorder) {
	tb.Helper()
	rec := obs.New()
	rec.SetSeriesCadence(recRingSeries)
	sys, err := topo.New(topo.Config{Nodes: 2})
	if err != nil {
		tb.Fatal(err)
	}
	progs, err := RingAllReducePrograms(sys, recRingRounds, recRingMatmuls)
	if err != nil {
		tb.Fatal(err)
	}
	cl, err := New(sys, progs)
	if err != nil {
		tb.Fatal(err)
	}
	cl.SetRecorder(rec)
	cl.SetWorkers(workers)
	cl.SetCheckpointCadence(recRingCadence)
	cl.SetBitErrorRate(recRingBER, recRingSeed)
	return cl, rec
}

// TestCheckpointBlobGolden pins the exact bytes of every checkpoint the
// recorded ring captures: the finish cycle, the capture count, and the
// SHA-256 of the concatenated blobs, at one and two workers. Any change to
// the encoder, the capture order or the recorder's state export that moves
// a single byte fails here.
func TestCheckpointBlobGolden(t *testing.T) {
	const (
		wantFinish   = 49285
		wantCaptures = 9
		wantSHA      = "6459134717fea5c16791554e83d759a77ee10b3130a59a6e438c2535d0d2d058"
	)
	for _, workers := range []int{1, 2} {
		cl, _ := buildRecordedRing(t, workers)
		finish, err := cl.Run()
		if err != nil {
			t.Fatalf("w%d: run: %v", workers, err)
		}
		if finish != wantFinish {
			t.Errorf("w%d: finish %d, want %d", workers, finish, wantFinish)
		}
		store := cl.Checkpoints()
		if len(store) != wantCaptures {
			t.Errorf("w%d: %d captures, want %d", workers, len(store), wantCaptures)
		}
		h := sha256.New()
		for _, st := range store {
			h.Write(st.Blob)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != wantSHA {
			t.Errorf("w%d: blob SHA-256 %s, want %s", workers, got, wantSHA)
		}
	}
}

// TestRecordedRingTraceGolden pins the SHA-256 of the recorded ring's
// Chrome trace export at one and two workers: event order, the metadata
// names, the counter tail and the encoder's formatting together.
func TestRecordedRingTraceGolden(t *testing.T) {
	const wantSHA = "73a2f19b2d3c831afe80f9feaa0d377c44ebcc4b29429320b729cbdc7c33f9a2"
	for _, workers := range []int{1, 2} {
		cl, rec := buildRecordedRing(t, workers)
		if _, err := cl.Run(); err != nil {
			t.Fatalf("w%d: run: %v", workers, err)
		}
		h := sha256.New()
		if err := rec.WriteTrace(h); err != nil {
			t.Fatalf("w%d: WriteTrace: %v", workers, err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != wantSHA {
			t.Errorf("w%d: trace SHA-256 %s, want %s", workers, got, wantSHA)
		}
	}
}
