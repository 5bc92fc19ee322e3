package runtime

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/topo"
)

// programHashes returns the SHA-256 of each program's encoding, in chip
// order.
func programHashes(progs []*isa.Program) [][sha256.Size]byte {
	out := make([][sha256.Size]byte, len(progs))
	for i, p := range progs {
		out[i] = sha256.Sum256(isa.EncodeProgram(p))
	}
	return out
}

// assertProgramsUnchanged fails for every program whose encoding differs
// from its hash in before.
func assertProgramsUnchanged(t *testing.T, label string, progs []*isa.Program, before [][sha256.Size]byte) {
	t.Helper()
	for i, h := range programHashes(progs) {
		if h != before[i] {
			t.Errorf("%s: chip %d's program changed", label, i)
		}
	}
}

// distinctPrograms counts the distinct program pointers.
func distinctPrograms(progs []*isa.Program) int {
	seen := map[*isa.Program]bool{}
	for _, p := range progs {
		seen[p] = true
	}
	return len(seen)
}

// TestProgramsReadOnly proves nothing writes a program after New, which is
// what lets the generators hand one *isa.Program to every chip of a role.
// It hashes every program before and after a faulted ladder (two replays
// and a failover), a ladder that resumes from a checkpoint, and a
// RestoreSnapshot followed by a resumed Run.
func TestProgramsReadOnly(t *testing.T) {
	for _, tc := range []struct {
		name string
		sc   func(t *testing.T, rec *obs.Recorder) *ladderScenario
		// the ladder walk the scenario must take
		replays, failovers, resumes int
	}{
		{"replay-failover", func(t *testing.T, rec *obs.Recorder) *ladderScenario { return newLadderScenario(t, 1, rec) }, 2, 1, 0},
		{"checkpoint-resume", func(t *testing.T, rec *obs.Recorder) *ladderScenario { return newResumeScenario(t, 1, 650, rec) }, 1, 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var res *LadderResult
			var err error
			var before [][sha256.Size]byte
			var sc *ladderScenario
			withRecorder(t, func(rec *obs.Recorder) {
				sc = tc.sc(t, rec)
				progs, gerr := RingAllReducePrograms(sc.sys, sc.rounds, 0)
				if gerr != nil {
					t.Fatal(gerr)
				}
				sc.progs = progs
				before = programHashes(progs)
				res, err = sc.ladder.Run()
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Replays != tc.replays || res.Failovers != tc.failovers || res.Resumes != tc.resumes {
				t.Fatalf("replays/failovers/resumes = %d/%d/%d, want %d/%d/%d",
					res.Replays, res.Failovers, res.Resumes, tc.replays, tc.failovers, tc.resumes)
			}
			assertProgramsUnchanged(t, tc.name, sc.progs, before)
		})
	}

	t.Run("restore-resume", func(t *testing.T) {
		sys, err := topo.New(topo.Config{Nodes: 2})
		if err != nil {
			t.Fatal(err)
		}
		progs, err := RingAllReducePrograms(sys, 7, 1)
		if err != nil {
			t.Fatal(err)
		}
		before := programHashes(progs)
		straight, err := New(sys, progs)
		if err != nil {
			t.Fatal(err)
		}
		straight.SetCheckpointCadence(650)
		if _, err := straight.Run(); err != nil {
			t.Fatal(err)
		}
		store := straight.Checkpoints()
		if len(store) < 2 {
			t.Fatalf("%d checkpoints, want at least 2", len(store))
		}
		snap, err := checkpoint.Decode(store[len(store)/2].Blob)
		if err != nil {
			t.Fatal(err)
		}
		resumed, err := New(sys, progs)
		if err != nil {
			t.Fatal(err)
		}
		if err := resumed.RestoreSnapshot(snap); err != nil {
			t.Fatal(err)
		}
		if _, err := resumed.Run(); err != nil {
			t.Fatal(err)
		}
		assertProgramsUnchanged(t, "restore-resume", progs, before)
	})
}

// TestGeneratorProgramsPinned pins every chip's program bytes for the
// three bench shapes: a SHA-256 over each chip's isa.EncodeProgram bytes
// in chip order. It also checks that each generator builds one program
// per chip role: 7 distinct ring roles and 8 pipeline stages.
func TestGeneratorProgramsPinned(t *testing.T) {
	for _, tc := range []struct {
		name                  string
		pipeline              bool
		nodes, steps, matmuls int
		distinct              int
		sha                   string
	}{
		{"ring-comm", false, 32, 448, 0, 7, "ec74b5ea2d0735fe91e3ab5d640f24d694990a17299631155417927b30f89753"},
		{"pipeline-compute", true, 8, 96, 50, 8, "8fb3916456e3e4f17007642a7672203c23feeb23f643431289657e6c42fa33ea"},
		{"ring-recorded", false, 2, 56, 2, 7, "32b1f4ebc9e5c2b7e11cff1ffa6ec33d8d61a4e675e9e8cd7696b4af60509381"},
	} {
		sys, err := topo.New(topo.Config{Nodes: tc.nodes})
		if err != nil {
			t.Fatal(err)
		}
		gen := RingAllReducePrograms
		if tc.pipeline {
			gen = PipelinePrograms
		}
		progs, err := gen(sys, tc.steps, tc.matmuls)
		if err != nil {
			t.Fatal(err)
		}
		if got := distinctPrograms(progs); got != tc.distinct {
			t.Errorf("%s: %d distinct programs, want %d", tc.name, got, tc.distinct)
		}
		h := sha256.New()
		for _, p := range progs {
			h.Write(isa.EncodeProgram(p))
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.sha {
			t.Errorf("%s: programs SHA-256 = %s, want %s", tc.name, got, tc.sha)
		}
	}
}

// TestGeneratorFinishClosedForm checks Cluster.Run's finish cycle against
// the generators' closed forms, with m matmuls per round or stage:
//
//   - ring: rounds·(720+80m) + 5. The last round ends at rounds·period,
//     where the final SRAM write issues and retires 5 cycles later.
//   - pipeline: (waves+6)·P + max(25, 10+80m), with P = max(720, 50+80m).
//     The last stage's last window opens at (waves−1+7)·P. It ends with
//     the 5-cycle write issued at +20 or with the last matmul, which
//     retires at +10+80m.
//
// The tolerance is zero: every instruction issues at a cycle fixed at
// compile time and no latency depends on data, so any difference is a
// timing bug.
func TestGeneratorFinishClosedForm(t *testing.T) {
	for _, nodes := range []int{1, 2, 4} {
		for _, steps := range []int{1, 3, 7, 8} {
			for _, m := range []int{0, 1, 2, 50} {
				ring := int64(steps*(720+80*m) + 5)
				period := max(720, 50+80*m)
				pipe := int64((steps+6)*period + max(25, 10+80*m))
				for _, c := range []struct {
					name string
					cl   *Cluster
					want int64
				}{
					{"ring", buildRing(t, nodes, steps, m, 1), ring},
					{"pipeline", buildPipeline(t, nodes, steps, m, 1), pipe},
				} {
					got, err := c.cl.Run()
					if err != nil {
						t.Fatalf("%s nodes=%d steps=%d m=%d: %v", c.name, nodes, steps, m, err)
					}
					if got != c.want {
						t.Errorf("%s nodes=%d steps=%d m=%d: finish %d, want %d", c.name, nodes, steps, m, got, c.want)
					}
				}
			}
		}
	}
}

// BenchmarkClusterSetup times a cluster's set-up for the ring-comm and
// pipeline-compute bench shapes: topo.New, the program generator and New.
// ring-recorded is buildRecordedRing's ring under a fresh recorder with
// series and checkpoint cadences and a bit error rate armed.
func BenchmarkClusterSetup(b *testing.B) {
	for _, tc := range []struct {
		name                  string
		gen                   func(*topo.System, int, int) ([]*isa.Program, error)
		nodes, steps, matmuls int
	}{
		{"ring-comm", RingAllReducePrograms, 32, 448, 0},
		{"pipeline-compute", PipelinePrograms, 8, 96, 50},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sys, err := topo.New(topo.Config{Nodes: tc.nodes})
				if err != nil {
					b.Fatal(err)
				}
				progs, err := tc.gen(sys, tc.steps, tc.matmuls)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := New(sys, progs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("ring-recorded", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buildRecordedRing(b, 1)
		}
	})
}
