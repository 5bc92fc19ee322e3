package fleet

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// fleetDump is everything a fleet run exports: the report JSON (or the
// error that stopped it) and the recorder's trace, metrics and series.
type fleetDump struct {
	report, trace, metrics, series []byte
	err                            string
}

// recordRun runs one engine under a fresh recorder with series sampling
// on and returns its exports.
func recordRun(tb testing.TB, run func(Config) (*SLOReport, error), cfg Config) (fleetDump, *SLOReport) {
	tb.Helper()
	rec := obs.New()
	rec.SetSeriesCadence(1)
	cfg.Recorder = rec
	var d fleetDump
	rep, err := run(cfg)
	if err == nil {
		d.report, err = rep.JSON()
	}
	if err != nil {
		d.err = err.Error()
	}
	var trace, metrics, series bytes.Buffer
	for _, err := range []error{rec.WriteTrace(&trace), rec.WriteMetrics(&metrics), rec.WriteSeries(&series)} {
		if err != nil {
			tb.Fatalf("export: %v", err)
		}
	}
	d.trace, d.metrics, d.series = trace.Bytes(), metrics.Bytes(), series.Bytes()
	return d, rep
}

// diffDumps reports the first export that differs between the engine and
// the oracle.
func diffDumps(got, want fleetDump) string {
	switch {
	case got.err != want.err:
		return fmt.Sprintf("error %q, oracle %q", got.err, want.err)
	case !bytes.Equal(got.report, want.report):
		return "SLOReport JSON differs"
	case !bytes.Equal(got.trace, want.trace):
		return "trace export differs"
	case !bytes.Equal(got.metrics, want.metrics):
		return "metrics export differs"
	case !bytes.Equal(got.series, want.series):
		return "series export differs"
	}
	return ""
}

// TestFleetEngineMatchesReference holds the state-boundary engine to the
// per-arrival oracle byte for byte, over seeds x policy stacks x fleet
// shapes. The shapes run the stressed scenario at a 5 h MTBF for three
// days, so every shape visits replays, failovers, capacity losses,
// standby activations, drains and priority sheds.
func TestFleetEngineMatchesReference(t *testing.T) {
	base, drain, adaptive, shed := StressedScenario()
	base.HorizonDays = 3
	base.Fault.MTBFHours = 5
	shapes := []struct {
		name   string
		mutate func(*Config)
	}{
		{"stressed", func(*Config) {}},
		{"standby=0", func(c *Config) { c.Standby = 0 }},
		{"systems=1", func(c *Config) { c.Systems, c.Standby, c.ArrivalRatePerSec = 1, 1, 0.05 }},
	}
	noPrewarm := drain
	noPrewarm.Prewarm = false
	// Below the ambient ceiling, with a hold off the indicator grid:
	// ambient noise triggers drains that expire between samples.
	falsePositive := drain
	falsePositive.Threshold, falsePositive.HoldUS = 0.2, 1.5*base.Fault.LeadUS
	policies := []struct {
		name   string
		mutate func(*Config)
	}{
		{"none", func(*Config) {}},
		{"drain", func(c *Config) { c.Policy.Drain = drain }},
		{"adaptive", func(c *Config) { c.Fault.Adaptive = adaptive }},
		{"shed", func(c *Config) { c.Policy.Shed = shed }},
		{"all", func(c *Config) {
			c.Policy = Policy{Drain: drain, Shed: shed}
			c.Fault.Adaptive = adaptive
		}},
		{"drain-no-prewarm", func(c *Config) { c.Policy = Policy{Drain: noPrewarm, Shed: shed} }},
		{"drain-expiring", func(c *Config) { c.Policy.Drain = falsePositive }},
	}
	for _, seed := range []uint64{1, 2, 3} {
		for _, sh := range shapes {
			for _, p := range policies {
				cfg := base
				cfg.Seed = seed
				sh.mutate(&cfg)
				p.mutate(&cfg)
				want, _ := recordRun(t, referenceRun, cfg)
				got, _ := recordRun(t, Run, cfg)
				if want.err != "" {
					t.Fatalf("seed %d %s/%s: oracle failed: %s", seed, sh.name, p.name, want.err)
				}
				if d := diffDumps(got, want); d != "" {
					t.Errorf("seed %d %s/%s: %s", seed, sh.name, p.name, d)
				}
			}
		}
	}
}

// A capacity loss that consumes a pre-warmed standby whose warmup already
// elapsed floors the standby's ready time to the fault itself, so the
// standby activates inside the same advance pass as the fault that
// scheduled it. The engine must keep that ordering: the standby serves
// from the fault instant, exactly as in the oracle.
func TestFleetPrewarmFloorActivatesInSamePass(t *testing.T) {
	cfg, drain, _, _ := StressedScenario()
	cfg.HorizonDays = 3
	cfg.Fault.MTBFHours = 5
	cfg.Fault.Spares = 0 // every node loss sheds capacity
	cfg.WarmupUS = 6e7   // 1 min: far inside the 10 min indicator lead
	cfg.Policy.Drain = drain
	want, _ := recordRun(t, referenceRun, cfg)
	got, rep := recordRun(t, Run, cfg)
	if d := diffDumps(got, want); d != "" {
		t.Fatal(d)
	}
	e, _, err := newEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	losses := map[float64]bool{}
	for _, st := range e.systems {
		for _, ev := range st.events {
			if ev.Kind == workloads.KindCapacityLoss {
				losses[ev.StartUS] = true
			}
		}
	}
	floored := 0
	for _, s := range rep.PerSystem {
		if s.Standby && s.ActivatedAtUS > 0 && losses[s.ActivatedAtUS] {
			floored++
			if s.Requests == 0 {
				t.Errorf("standby %d activated at its fault %g but served nothing", s.ID, s.ActivatedAtUS)
			}
		}
	}
	if rep.PrewarmHits == 0 || floored == 0 {
		t.Fatalf("no pre-warmed standby floored to its fault: %d prewarm hits, %d floored", rep.PrewarmHits, floored)
	}
}

// FuzzFleetConfig: Validate never panics, whatever the fields hold, and
// every config it accepts runs — once its horizon is clamped so one
// input stays small — to a report whose request accounting closes and
// whose exports match the per-arrival oracle byte for byte. The seed
// corpus (testdata/fuzz/FuzzFleetConfig) holds the stressed and headline
// scenarios, a single system, the pre-warm floor edge, expiring
// false-positive drains, infinite knobs and a hostile all-invalid input.
func FuzzFleetConfig(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, systems, standby int8, serviceUS float64, depth int8,
		rate, days, sloUS, windowUS, shedUS, warmupUS,
		mtbfH float64, spares int8, replayFrac, replayStallUS, cadenceUS, restoreUS, leadUS,
		drainThr float64, drainWin int8, holdUS float64, prewarm bool, idleFrac, prioFactor, batchShare float64) {
		cfg := Config{
			Systems: int(systems), Standby: int(standby),
			ServiceUS: serviceUS, PipelineDepth: int(depth),
			ArrivalRatePerSec: rate, HorizonDays: days, Seed: seed,
			Fault: workloads.FaultProfile{
				MTBFHours: mtbfH, Spares: int(spares), ReplayFrac: replayFrac, ReplayStallUS: replayStallUS,
				Checkpoint: workloads.Checkpointing{CadenceUS: cadenceUS, RestoreUS: restoreUS},
				LeadUS:     leadUS,
			},
			SLOTargetUS: sloUS, WindowUS: windowUS, ShedAboveUS: shedUS, WarmupUS: warmupUS,
			Policy: Policy{
				Drain: DrainPolicy{Threshold: drainThr, Window: int(drainWin), HoldUS: holdUS,
					Prewarm: prewarm, IdleStallFrac: idleFrac},
				Shed: ShedPolicy{PriorityFactor: prioFactor},
			},
		}
		if batchShare != 0 {
			cfg.Mix = []TrafficClass{
				{Name: "interactive", Share: 1 - batchShare, ServiceMult: 1},
				{Name: "batch", Share: batchShare, ServiceMult: 4, Priority: 1, SLOTargetUS: 5 * sloUS},
			}
		}
		_ = cfg.Validate()
		if cfg.withDefaults().Validate() != nil {
			return
		}
		clampFleetHorizon(&cfg)
		want, _ := recordRun(t, referenceRun, cfg)
		got, rep := recordRun(t, Run, cfg)
		if d := diffDumps(got, want); d != "" {
			t.Fatal(d)
		}
		if rep == nil {
			return // the clamped horizon fell to zero and was rejected
		}
		if rep.Served+rep.Shed != rep.Requests {
			t.Fatalf("served %d + shed %d != requests %d", rep.Served, rep.Shed, rep.Requests)
		}
		var sum int64
		for _, s := range rep.PerSystem {
			sum += s.Requests
		}
		if sum != rep.Served {
			t.Fatalf("per-system requests sum to %d, served %d", sum, rep.Served)
		}
	})
}

// clampFleetHorizon bounds one fuzz input's work: the arrival rate to
// 1e6/s, then the horizon to about 10000 arrivals, 200 faults and 1000
// indicator samples per system, and 10000 SLO windows.
func clampFleetHorizon(c *Config) {
	c.ArrivalRatePerSec = math.Min(c.ArrivalRatePerSec, 1e6)
	maxUS := math.Min(1e4/c.ArrivalRatePerSec*1e6, 200*c.Fault.MTBFHours*3600*1e6)
	maxUS = math.Min(maxUS, 1e4*c.withDefaults().WindowUS)
	if c.Fault.LeadUS > 0 {
		maxUS = math.Min(maxUS, 1000*c.Fault.LeadUS)
	}
	c.HorizonDays = math.Min(c.HorizonDays, maxUS/(24*3600*1e6))
}

// arrivalTimesUS draws cfg's first n arrival times exactly as
// referenceRun does, one draw per arrival.
func arrivalTimesUS(cfg Config, n int) []float64 {
	arr := sim.NewRNG(cfg.Seed).Fork(arrivalStream)
	meanGapUS := 1e6 / cfg.ArrivalRatePerSec
	ts := make([]float64, n)
	t := 0.0
	for i := range ts {
		u := arr.Float64()
		if u <= 0 {
			u = 1e-12
		}
		t += -math.Log(u) * meanGapUS
		ts[i] = t
	}
	return ts
}

// Run draws arrivals a block at a time; the oracle draws one per
// arrival. Horizons that end exactly after a full block (the next block
// is empty), one arrival into a block, and before the first arrival
// must match the oracle byte for byte, with no Mix and with a Mix of
// more classes than an int8 can index.
func TestFleetArrivalBlockBoundaries(t *testing.T) {
	base, drain, adaptive, shed := StressedScenario()
	base.Fault.MTBFHours = 0.05 // faults inside the few-minute horizons
	base.Fault.LeadUS = 6e7
	base.Policy = Policy{Drain: drain, Shed: shed}
	base.Fault.Adaptive = adaptive
	wide := make([]TrafficClass, 200)
	for ci := range wide {
		wide[ci] = TrafficClass{
			Name: fmt.Sprintf("c%d", ci), Share: 1.0 / float64(len(wide)),
			ServiceMult: float64(1 + ci%5), Priority: ci % 7,
		}
		if ci%3 == 0 {
			wide[ci].SLOTargetUS = 3e8
		}
	}
	times := arrivalTimesUS(base, 2*arrivalBlock+2)
	for _, requests := range []int{0, 1, arrivalBlock, arrivalBlock + 1, 2 * arrivalBlock} {
		// End the horizon midway between the last arrival kept and the
		// first one past it.
		endUS := times[0] / 2
		if requests > 0 {
			endUS = (times[requests-1] + times[requests]) / 2
		}
		for _, mix := range []struct {
			name    string
			classes []TrafficClass
		}{{"no-mix", nil}, {"200-classes", wide}} {
			cfg := base
			cfg.HorizonDays = endUS / (24 * 3600 * 1e6)
			cfg.Mix = mix.classes
			want, _ := recordRun(t, referenceRun, cfg)
			got, rep := recordRun(t, Run, cfg)
			if want.err != "" {
				t.Fatalf("%d requests %s: oracle failed: %s", requests, mix.name, want.err)
			}
			if d := diffDumps(got, want); d != "" {
				t.Errorf("%d requests %s: %s", requests, mix.name, d)
			}
			if rep.Requests != int64(requests) {
				t.Errorf("%s: %d requests, want %d", mix.name, rep.Requests, requests)
			}
		}
	}
}
