// Package c2c models the chip-to-chip links of the TSP multiprocessor.
//
// A link is four serdes lanes, each operated at 25 Gbps (the hardware
// supports up to 30 Gbps; the paper runs everything at 25 for uniformity),
// for 100 Gbps = 12.5 GB/s per direction. A 320-byte vector travels in a
// 328-byte wire frame (97.5 % encoding efficiency, Fig 11): because the
// network is software-scheduled, no routing headers are needed — only a
// small control/FEC tag.
//
// The latency of a real link is plesiochronous: a fixed serdes +
// clock-domain-crossing component, a propagation component proportional to
// cable length, and a few cycles of jitter. The paper characterizes it with
// the HAC reflect protocol (Table 2: min 209 / mean ≈ 216.9 / max 228 / std
// ≈ 2.8 cycles for 0.75 m intra-node cables). This package reproduces that
// distribution with a deterministic per-link RNG stream, and additionally
// exposes the *aligned* latency — the fixed arrival time the receive deskew
// FIFO presents to the scheduled fabric once the link is characterized.
package c2c

import (
	"fmt"
	"math"

	"repro/internal/ecc"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Wire and bandwidth constants (paper §2.3, Fig 11).
const (
	// VectorBytes is the payload size of one vector, the fabric's flit.
	VectorBytes = 320
	// FrameBytes is the on-wire size of one vector frame.
	FrameBytes = 328
	// LanesPerLink is the number of serdes lanes bonded into one link.
	LanesPerLink = 4
	// LaneGbps is the operating lane rate.
	LaneGbps = 25
	// LinkGBps is the usable payload bandwidth of one link direction in
	// bytes per second: 100 Gbps of raw wire rate carrying 320/328
	// payload bytes per frame.
	LinkRawGbps = LanesPerLink * LaneGbps
)

// EncodingEfficiency is the fraction of wire bytes that carry payload.
func EncodingEfficiency() float64 { return float64(VectorBytes) / float64(FrameBytes) }

// FrameTime is the serialization time of one 328-byte frame at 100 Gbps:
// 328*8 bits / 100 Gbps = 26.24 ns.
const FrameTime = sim.Time(FrameBytes * 8 * 1000 / LinkRawGbps * sim.Nanosecond / 1000)

// VectorSlotCycles is the link occupancy of one vector in 900 MHz core
// cycles, rounded up: the schedule may place at most one vector per slot per
// link. ceil(26.24 ns / 1.111 ns) = 24.
const VectorSlotCycles = 24

// Media is the physical cable type.
type Media int

const (
	// Electrical cables serve intra-node (0.75 m low-profile) and
	// intra-rack (<2 m QSFP) connections.
	Electrical Media = iota
	// Optical active cables serve rack-to-rack connections.
	Optical
)

func (m Media) String() string {
	if m == Optical {
		return "optical"
	}
	return "electrical"
}

// Latency model constants, in 900 MHz cycles.
const (
	// serdesBaseCycles is the fixed TX serdes + RX CDC + framing latency.
	serdesBaseCycles = 206
	// cyclesPerMeter is signal propagation (~5 ns/m ≈ 4.5 cycles/m).
	cyclesPerMeter = 4.5
	// opticalExtraCycles is added by a pair of active optical
	// transceivers.
	opticalExtraCycles = 90
	// jitterMean/jitterStd shape the observed per-direction latency
	// spread above the minimum; clipJitter bounds it (serdes FIFOs
	// guarantee a bound). Tuned so that the HAC reflect protocol's
	// round-trip/2 estimate reproduces Table 2: mean ≈ 216.9, std ≈ 2.8,
	// min ≈ 209-211, max ≈ 225-228 cycles on intra-node cables.
	jitterMean = 6.7
	jitterStd  = 4.1
	clipJitter = 19
)

// Config describes one physical link.
type Config struct {
	// Length is the cable length in meters.
	Length float64
	// Media selects electrical or optical signaling.
	Media Media
	// BitErrorRate is the per-bit probability of a transmission error,
	// used by fault-injection experiments. Zero disables errors.
	BitErrorRate float64
}

// Health classifies a link's operational state as the runtime health
// monitor sees it (§4.5). State transitions are driven by the fault plan
// and the recovery ladder, never by the link itself: the fabric has no
// link-layer retry or renegotiation, so only software changes a link's
// standing.
type Health int

const (
	// Healthy links carry traffic at their characterized latency.
	Healthy Health = iota
	// Degraded links are operational but marginal (elevated BER or a
	// recent flap); the runtime should re-characterize before trusting
	// them.
	Degraded
	// Down links have lost carrier; anything scheduled over them arrives
	// as garbage the FEC flags uncorrectable.
	Down
)

func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Down:
		return "down"
	default:
		return "unknown"
	}
}

// IntraNode returns the standard 0.75 m electrical intra-node cable.
func IntraNode() Config { return Config{Length: 0.75, Media: Electrical} }

// IntraRack returns a <2 m electrical QSFP cable between nodes of a rack.
func IntraRack() Config { return Config{Length: 2.0, Media: Electrical} }

// InterRack returns an active optical cable between racks.
func InterRack(meters float64) Config { return Config{Length: meters, Media: Optical} }

// Link is one unidirectional point-to-point C2C link instance with its own
// deterministic jitter stream.
type Link struct {
	cfg       Config
	rng       *sim.RNG
	meanShift float64 // small per-link manufacturing variation

	// health is the monitor-visible state; alignedMargin is extra deskew
	// FIFO depth added by post-flap re-characterization (hac.Recharacterize)
	// on top of the clipJitter worst case. flaps counts health excursions.
	health        Health
	alignedMargin int
	flaps         *obs.Counter

	// Observability counters (nil when no recorder is attached). Links
	// share unlabeled aggregate counters by default; Instrument installs
	// labeled per-link ones.
	framesTx, bitErrsInjected, framesRx, sbesCorrected, mbesDetected *obs.Counter
	slotCycles                                                       *obs.Counter
	rec                                                              *obs.Recorder
}

// New creates a link. The RNG stream should be forked from the system seed
// with a stable per-link identifier so runs are reproducible. The link
// records nothing until its owner calls Instrument.
func New(cfg Config, rng *sim.RNG) *Link {
	// Per-link static variation of the mean, ±0.5 cycles, mirroring the
	// spread of per-link means in Table 2.
	shift := (rng.Float64() - 0.5)
	return &Link{cfg: cfg, rng: rng, meanShift: shift}
}

// Instrument attaches observability counters, optionally label-keyed
// (e.g. obs.L("link", "L0012")). With no labels every link feeds the same
// aggregate c2c.* counters, which is the right default for fleet-wide
// FEC statistics.
func (l *Link) Instrument(rec *obs.Recorder, labels ...obs.Label) {
	l.rec = rec
	if rec == nil {
		return
	}
	l.framesTx = rec.Counter("c2c.frames_tx", labels...)
	l.bitErrsInjected = rec.Counter("c2c.bit_errors_injected", labels...)
	l.framesRx = rec.Counter("c2c.frames_rx", labels...)
	l.sbesCorrected = rec.Counter("c2c.sbes_corrected", labels...)
	l.mbesDetected = rec.Counter("c2c.mbes_detected", labels...)
	l.flaps = rec.Counter("c2c.link_flaps", labels...)
	l.slotCycles = rec.Counter("c2c.slot_cycles", labels...)
}

// Recorder returns the recorder Instrument attached, or nil.
func (l *Link) Recorder() *obs.Recorder { return l.rec }

// SetHealth records a state transition. Entering a non-healthy state
// counts as a flap; re-characterization (hac.Recharacterize) restores
// Healthy.
func (l *Link) SetHealth(h Health) {
	if h != Healthy && l.health == Healthy {
		l.flaps.Inc()
	}
	l.health = h
}

// SetBitErrorRate changes the link's error process mid-life — the fault
// hook a BER-excursion event uses. The jitter/error RNG stream is
// unaffected, so deterministic replays stay deterministic.
func (l *Link) SetBitErrorRate(ber float64) { l.cfg.BitErrorRate = ber }

// AlignedMarginCycles is the extra presentation latency added on top of
// the characterized worst case by post-flap re-characterization.
func (l *Link) AlignedMarginCycles() int { return l.alignedMargin }

// SetAlignedMargin installs a new deskew margin (cycles above the
// characterized worst case). Negative margins clamp to zero: the deskew
// FIFO can widen but never present earlier than the worst observed draw.
func (l *Link) SetAlignedMargin(cycles int) {
	if cycles < 0 {
		cycles = 0
	}
	l.alignedMargin = cycles
}

// MinLatencyCycles is the deterministic floor of the link's latency.
func (l *Link) MinLatencyCycles() int {
	c := serdesBaseCycles + int(math.Ceil(l.cfg.Length*cyclesPerMeter))
	if l.cfg.Media == Optical {
		c += opticalExtraCycles
	}
	return c
}

// DrawLatencyCycles draws one observed single-trip latency in cycles, as the
// HAC reflect protocol would measure it. The draw is deterministic given the
// link's RNG stream position.
func (l *Link) DrawLatencyCycles() int {
	j := l.rng.NormFloat64()*jitterStd + jitterMean + l.meanShift
	if j < 0 {
		j = 0
	}
	if j > clipJitter {
		j = clipJitter
	}
	return l.MinLatencyCycles() + int(math.Round(j))
}

// AlignedLatencyCycles is the fixed latency the receive deskew FIFO presents
// after link characterization: the worst-case draw, plus any margin added by
// post-flap re-characterization. Once a link is trained, every vector
// arrives exactly this many cycles after transmission, which is what makes
// the fabric schedulable.
func (l *Link) AlignedLatencyCycles() int {
	return l.MinLatencyCycles() + clipJitter + l.alignedMargin
}

// TransferVector runs one payload through the wire pipeline in place:
// FEC encode, the link's bit-error process, then SECDED decode of every
// stripe. It returns the number of corrected single-bit errors and
// whether an uncorrectable error was detected. FEC corrects in situ; on a
// detected-uncorrectable error the payload carries the best-effort decode
// and must be treated as poisoned — the runtime must replay, because the
// fabric never retries (§4.5).
//
// The error process runs first. A frame it leaves clean skips the codec:
// decoding an unflipped SECDED word gives back its data with a zero
// syndrome and even parity, so that frame's payload, counters and return
// are what the full pipeline would give. Only a frame with a flipped bit
// is encoded, injected and decoded.
func (l *Link) TransferVector(payload *[VectorBytes]byte) (corrected int, mbe bool) {
	l.framesTx.Inc()
	l.slotCycles.Add(VectorSlotCycles)
	const bits = VectorBytes * 8
	// One Bernoulli(ber) draw per bit, in bit order: exact at any BER,
	// and each draw is an integer compare. Fault-injection experiments
	// use large BERs where exactness matters.
	ber := l.cfg.BitErrorRate
	b := bits
	if ber > 0 {
		b = l.rng.FirstBernoulli(bits, ber)
	}
	if b == bits {
		l.framesRx.Inc()
		return 0, false
	}
	fec := ecc.EncodeFrame(payload[:])
	for ; b < bits; b += 1 + l.rng.FirstBernoulli(bits-b-1, ber) {
		fec.InjectBitError(b)
		l.bitErrsInjected.Inc()
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

// LinkState is a point-in-time copy of one link's mutable state: the
// error process, the per-link manufacturing variation, the monitor-visible
// health, the post-repair deskew margin, and the jitter/error RNG cursor.
// The physical configuration (length, media) is construction-time and not
// captured: a restore targets a link built from the same topology.
type LinkState struct {
	BitErrorRate  float64
	MeanShift     float64
	Health        Health
	AlignedMargin int
	RNG           uint64
}

// State captures the link's mutable state for a checkpoint.
func (l *Link) State() LinkState {
	return LinkState{
		BitErrorRate:  l.cfg.BitErrorRate,
		MeanShift:     l.meanShift,
		Health:        l.health,
		AlignedMargin: l.alignedMargin,
		RNG:           l.rng.State(),
	}
}

// SetState restores a captured state. The health transition is silent —
// restoring a Degraded snapshot must not recount the original flap.
func (l *Link) SetState(s LinkState) {
	l.cfg.BitErrorRate = s.BitErrorRate
	l.meanShift = s.MeanShift
	l.health = s.Health
	l.alignedMargin = s.AlignedMargin
	l.rng.SetState(s.RNG)
}

func (l *Link) String() string {
	return fmt.Sprintf("c2c{%.2fm %s, min %d cyc, aligned %d cyc}",
		l.cfg.Length, l.cfg.Media, l.MinLatencyCycles(), l.AlignedLatencyCycles())
}
