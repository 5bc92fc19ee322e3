package fleet

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/workloads"
)

// baseCfg is a fleet under real pressure: 8 systems of large-batch
// inference (10s initiation interval), offered at 75% of fleet capacity,
// with faults every ~50h per system and three spares each — so over a
// month the ladder visits every rung: replays, failovers, and post-spare
// capacity losses.
func baseCfg() Config {
	return Config{
		Systems:           8,
		Standby:           2,
		ServiceUS:         1e7, // 10s per batch inference
		PipelineDepth:     2,
		ArrivalRatePerSec: 0.6, // fleet capacity is 0.8/s
		HorizonDays:       30,
		Seed:              42,
		Fault: workloads.FaultProfile{
			MTBFHours:     50,
			Spares:        3,
			ReplayFrac:    0.7,
			ReplayStallUS: 6e8, // 10 min of cycle-0 replay
			Checkpoint:    workloads.Checkpointing{CadenceUS: 5e6, RestoreUS: 1e6},
		},
		SLOTargetUS: 6e7, // 60s
		WarmupUS:    6e7,
	}
}

// The acceptance run: >=8 systems over >=30 simulated days, seeded
// incident schedules on every system, and a coherent report.
func TestFleetAcceptanceRun(t *testing.T) {
	rep, err := Run(baseCfg())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Systems < 8 || rep.HorizonDays < 30 {
		t.Fatalf("acceptance scale not met: %d systems, %g days", rep.Systems, rep.HorizonDays)
	}
	if rep.Requests < 1_000_000 {
		t.Fatalf("only %d requests over the horizon; open-loop stream miscalibrated", rep.Requests)
	}
	if rep.Served+rep.Shed != rep.Requests {
		t.Errorf("served %d + shed %d != requests %d", rep.Served, rep.Shed, rep.Requests)
	}
	if rep.Incidents == 0 || rep.Replays == 0 || rep.Failovers == 0 {
		t.Errorf("a month at 50h MTBF must exercise the ladder: %+v", rep)
	}
	if rep.Attainment <= 0 || rep.Attainment > 1 {
		t.Errorf("attainment %g out of range", rep.Attainment)
	}
	if rep.Windows == 0 || rep.WindowsMeeting999 > rep.Windows {
		t.Errorf("window accounting inconsistent: %d/%d", rep.WindowsMeeting999, rep.Windows)
	}
	if !(rep.P50US <= rep.P99US && rep.P99US <= rep.P999US && rep.P999US <= rep.P9999US && rep.P9999US <= rep.MaxUS) {
		t.Errorf("percentiles not monotone: p50 %g p99 %g p99.9 %g p99.99 %g max %g",
			rep.P50US, rep.P99US, rep.P999US, rep.P9999US, rep.MaxUS)
	}
	if len(rep.PerSystem) != 10 {
		t.Fatalf("want 10 per-system reports, got %d", len(rep.PerSystem))
	}
	var reqSum int64
	for i, s := range rep.PerSystem {
		if s.ID != i {
			t.Errorf("per-system report %d has id %d", i, s.ID)
		}
		reqSum += s.Requests
		if s.AvailableFrac < 0 || s.AvailableFrac > 1 {
			t.Errorf("sys %d availability %g out of range", i, s.AvailableFrac)
		}
		if i < 8 && s.Incidents == 0 {
			t.Errorf("active sys %d saw no incidents in a month at 50h MTBF", i)
		}
	}
	if reqSum != rep.Served {
		t.Errorf("per-system requests sum %d != served %d", reqSum, rep.Served)
	}
}

// Repeated runs produce byte-identical SLOReport JSON.
func TestFleetSLOReportByteStable(t *testing.T) {
	a, err := Run(baseCfg())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(baseCfg())
	if err != nil {
		t.Fatal(err)
	}
	aj, err := a.JSON()
	if err != nil {
		t.Fatal(err)
	}
	bj, err := b.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aj, bj) {
		t.Fatal("repeated runs diverged byte-wise")
	}
}

// Per-system fault schedules are forked by stable id: growing the
// standby pool (which forks more streams) must not perturb the active
// systems' schedules, and the arrival stream must not shift either.
func TestFleetForkOrderStable(t *testing.T) {
	small := baseCfg()
	small.Standby = 0
	big := baseCfg()
	big.Standby = 2

	a, err := Run(small)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(big)
	if err != nil {
		t.Fatal(err)
	}
	if a.Requests != b.Requests {
		t.Errorf("arrival stream shifted with the standby pool: %d vs %d", a.Requests, b.Requests)
	}
	for i := 0; i < small.Systems; i++ {
		at, bt := a.PerSystem[i], b.PerSystem[i]
		if at.Incidents != bt.Incidents || at.Replays != bt.Replays || at.Failovers != bt.Failovers {
			t.Errorf("sys %d schedule changed with the standby pool: %+v vs %+v", i, at, bt)
		}
	}
}

// The shed-first policy converts hopeless queueing into explicit error
// budget: sheds appear, they count against attainment, and no served
// request waited past the bound.
func TestFleetShedPolicySLO(t *testing.T) {
	cfg := baseCfg()
	cfg.HorizonDays = 10
	cfg.Fault.MTBFHours = 20                         // exhaust spares, shed capacity
	cfg.Fault.Checkpoint = workloads.Checkpointing{} // full cycle-0 replays
	cfg.ShedAboveUS = 3e7                            // shed rather than wait more than 30s for a slot

	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shed == 0 {
		t.Fatal("a degrading fleet at 75% load with a 30s bound must shed something")
	}
	if rep.Served+rep.Shed != rep.Requests {
		t.Errorf("served %d + shed %d != requests %d", rep.Served, rep.Shed, rep.Requests)
	}

	noShed := cfg
	noShed.ShedAboveUS = 0
	base, err := Run(noShed)
	if err != nil {
		t.Fatal(err)
	}
	if base.Shed != 0 {
		t.Errorf("shedding disabled but %d requests shed", base.Shed)
	}
	// Shedding bounds the served tail: the worst served latency is at
	// most slot-wait bound + the slowest admitted service residency.
	if rep.MaxUS >= base.MaxUS && base.MaxUS > rep.SLOTargetUS {
		t.Errorf("shed-first did not cut the tail: max %g vs %g unshed", rep.MaxUS, base.MaxUS)
	}
}

// Standby activation: capacity losses power on spares (after warmup),
// the activated systems take real traffic, and their pre-activation
// fault history applies to capacity but not to serving-visible stalls.
func TestFleetStandbyActivationSLO(t *testing.T) {
	cfg := baseCfg()
	cfg.Fault.MTBFHours = 20 // exhaust spares fast
	cfg.HorizonDays = 20

	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SpareActivations == 0 {
		t.Fatal("20 days at 20h MTBF with one spare each must trigger standby activation")
	}
	activated := 0
	for _, s := range rep.PerSystem[8:] {
		if !s.Standby {
			t.Fatalf("sys %d should be a standby", s.ID)
		}
		if s.ActivatedAtUS >= 0 {
			activated++
			if s.Requests == 0 {
				t.Errorf("activated standby %d served nothing", s.ID)
			}
		} else if s.Requests != 0 {
			t.Errorf("idle standby %d served %d requests", s.ID, s.Requests)
		}
	}
	if activated != rep.SpareActivations {
		t.Errorf("%d standbys activated but SpareActivations = %d", activated, rep.SpareActivations)
	}
}

func TestFleetConfigValidate(t *testing.T) {
	good := baseCfg()
	good.WindowUS = 3600 * 1e6 // Validate checks the post-default config
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Systems = 0 },
		func(c *Config) { c.Standby = -1 },
		func(c *Config) { c.ServiceUS = 0 },
		func(c *Config) { c.PipelineDepth = 0 },
		func(c *Config) { c.ArrivalRatePerSec = 0 },
		func(c *Config) { c.ArrivalRatePerSec = math.Inf(1) },
		func(c *Config) { c.HorizonDays = -1 },
		func(c *Config) { c.SLOTargetUS = 0 },
		func(c *Config) { c.ShedAboveUS = -1 },
		func(c *Config) { c.Fault.MTBFHours = 0 },
		func(c *Config) { c.Mix = []TrafficClass{{Name: "a", Share: 0.5, ServiceMult: 1}} },
		func(c *Config) {
			c.Mix = []TrafficClass{{Name: "a", Share: 1, ServiceMult: -2}}
		},
	}
	for i, mutate := range bad {
		c := baseCfg()
		c.WindowUS = 3600 * 1e6
		mutate(&c)
		if _, err := Run(c); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// Direct Validate calls, one named case per rejection, so a bad sweep
// point reports which knob broke before any simulation runs.
func TestFleetConfigValidateDirect(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero active systems", func(c *Config) { c.Systems = 0 }},
		{"negative warmup", func(c *Config) { c.WarmupUS = -1 }},
		{"negative shed bound", func(c *Config) { c.ShedAboveUS = -1 }},
		{"NaN service", func(c *Config) { c.ServiceUS = math.NaN() }},
		{"infinite arrival rate", func(c *Config) { c.ArrivalRatePerSec = math.Inf(1) }},
		{"class share not positive", func(c *Config) {
			c.Mix = []TrafficClass{{Name: "a", Share: 0, ServiceMult: 1}, {Name: "b", Share: 1, ServiceMult: 1}}
		}},
		{"class shares sum below one", func(c *Config) {
			c.Mix = []TrafficClass{{Name: "a", Share: 0.2, ServiceMult: 1}, {Name: "b", Share: 0.3, ServiceMult: 1}}
		}},
		{"negative class priority", func(c *Config) {
			c.Mix = []TrafficClass{{Name: "a", Share: 1, ServiceMult: 1, Priority: -1}}
		}},
		{"negative class SLO target", func(c *Config) {
			c.Mix = []TrafficClass{{Name: "a", Share: 1, ServiceMult: 1, SLOTargetUS: -1}}
		}},
		{"negative drain threshold", func(c *Config) { c.Policy.Drain.Threshold = -0.5 }},
		{"idle-stall fraction above one", func(c *Config) {
			c.Policy.Drain = DrainPolicy{Threshold: 0.4, IdleStallFrac: 1.5}
		}},
		{"shed priority factor above one", func(c *Config) { c.Policy.Shed.PriorityFactor = 2 }},
		{"adaptive cadence bounds inverted", func(c *Config) {
			c.Fault.Adaptive.Min = 2 * c.Fault.Checkpoint.CadenceUS
			c.Fault.Adaptive.Max = c.Fault.Checkpoint.CadenceUS
		}},
		{"negative lead window", func(c *Config) { c.Fault.LeadUS = -1 }},
	}
	for _, tc := range cases {
		c := baseCfg()
		c.WindowUS = 3600 * 1e6
		tc.mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	good, drain, adaptive, shed := StressedScenario()
	good = good.withDefaults()
	good.Policy = Policy{Drain: drain, Shed: shed}.withDefaults(good.Fault)
	good.Fault.Adaptive = adaptive
	if err := good.Validate(); err != nil {
		t.Errorf("stressed scenario with the full policy stack rejected: %v", err)
	}
}

// TestFleetLeadWindowCapped pins the ambient indicator cap. The stressed
// scenario with a 1 ns lead window passed Validate, and Run then panicked
// sizing each system's 1.2e15-sample ambient grid; now Validate rejects
// it, and Run returns that error. The cap itself is accepted, and the
// check allocates nothing on a valid config.
func TestFleetLeadWindowCapped(t *testing.T) {
	base, _, _, _ := StressedScenario()
	base = base.withDefaults()
	cfg := base
	cfg.Fault.LeadUS = 1e-3
	if err := cfg.Validate(); err == nil {
		t.Fatal("Validate accepted LeadUS 1e-3")
	}
	if _, err := Run(cfg); err == nil {
		t.Fatal("Run accepted LeadUS 1e-3")
	}
	cfg.Fault.LeadUS = cfg.horizonUS() / maxAmbientSamples
	if err := cfg.Validate(); err != nil {
		t.Fatalf("LeadUS at the cap rejected: %v", err)
	}
	if n := testing.AllocsPerRun(100, func() { _ = base.Validate() }); n != 0 {
		t.Errorf("Validate allocates %v times on the stressed scenario", n)
	}
}

// A traffic mix is drawn from its own stream: enabling it must not
// perturb the arrival process, and heavier mixes stretch the tail.
func TestFleetTrafficMixSLO(t *testing.T) {
	cfg := baseCfg()
	cfg.HorizonDays = 10
	cfg.ArrivalRatePerSec = 0.4 // leave headroom for the 4x batch class

	pure, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Mix = []TrafficClass{
		{Name: "interactive", Share: 0.9, ServiceMult: 1},
		{Name: "batch", Share: 0.1, ServiceMult: 4},
	}
	mixed, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pure.Requests != mixed.Requests {
		t.Errorf("mix perturbed the arrival stream: %d vs %d arrivals", pure.Requests, mixed.Requests)
	}
	if mixed.P999US <= pure.P999US {
		t.Errorf("10%% of 4x batch traffic should stretch p99.9: %g vs %g", mixed.P999US, pure.P999US)
	}
	if math.IsNaN(mixed.Attainment) {
		t.Error("attainment NaN under mix")
	}
}
