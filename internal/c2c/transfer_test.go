package c2c

import (
	"maps"
	"testing"

	"repro/internal/ecc"
	"repro/internal/obs"
	"repro/internal/sim"
)

// transferFullPath is TransferVector without the clean-frame bypass:
// every frame is encoded, run through the error process and decoded.
func transferFullPath(l *Link, payload *[VectorBytes]byte) (corrected int, mbe bool) {
	fec := ecc.EncodeFrame(payload[:])
	l.framesTx.Inc()
	l.slotCycles.Add(VectorSlotCycles)
	if ber := l.cfg.BitErrorRate; ber > 0 {
		bits := VectorBytes * 8
		for b := l.rng.FirstBernoulli(bits, ber); b < bits; b += 1 + l.rng.FirstBernoulli(bits-b-1, ber) {
			fec.InjectBitError(b)
			l.bitErrsInjected.Inc()
		}
	}
	for i := range fec.Words {
		data, res := ecc.Decode(fec.Words[i])
		switch res {
		case ecc.CorrectedSBE:
			corrected++
		case ecc.DetectedMBE:
			mbe = true
		}
		for b := 0; b < 8; b++ {
			payload[i*8+b] = byte(data >> uint(8*b))
		}
	}
	l.framesRx.Inc()
	l.sbesCorrected.Add(int64(corrected))
	if mbe {
		l.mbesDetected.Inc()
	}
	return corrected, mbe
}

// The clean-frame bypass must leave every frame as the full pipeline
// does: the payload, the (corrected, mbe) return, the RNG cursor, and the
// frame, slot, bit-error, SBE and MBE counters. BER 0 never draws, 1e-6
// is nearly all clean frames, 1e-3 and 0.05 mix clean, corrected and
// uncorrectable frames, and 1 flips every bit.
func TestTransferVectorMatchesFullPath(t *testing.T) {
	for _, ber := range []float64{0, 1e-6, 1e-3, 0.05, 1} {
		for seed := uint64(1); seed <= 20; seed++ {
			cfg := IntraNode()
			cfg.BitErrorRate = ber
			fast, full := New(cfg, sim.NewRNG(seed)), New(cfg, sim.NewRNG(seed))
			fastRec, fullRec := obs.New(), obs.New()
			fast.Instrument(fastRec)
			full.Instrument(fullRec)
			data := sim.NewRNG(seed + 1000)
			for f := 0; f < 200; f++ {
				var want [VectorBytes]byte
				for i := range want {
					want[i] = byte(data.Uint64())
				}
				got := want
				gotC, gotM := fast.TransferVector(&got)
				wantC, wantM := transferFullPath(full, &want)
				if got != want || gotC != wantC || gotM != wantM {
					t.Fatalf("BER %g seed %d frame %d: corrected %d mbe %v, full path %d %v; payloads equal %v",
						ber, seed, f, gotC, gotM, wantC, wantM, got == want)
				}
				if fast.rng.State() != full.rng.State() {
					t.Fatalf("BER %g seed %d frame %d: cursor %#x, full path %#x", ber, seed, f, fast.rng.State(), full.rng.State())
				}
			}
			if got, want := fastRec.State().Counters, fullRec.State().Counters; !maps.Equal(got, want) {
				t.Fatalf("BER %g seed %d: counters %v, full path %v", ber, seed, got, want)
			}
		}
	}
}
