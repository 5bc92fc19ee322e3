package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestUnknownExperimentExitsWithUsage(t *testing.T) {
	t.Parallel()
	var errw bytes.Buffer
	code := run([]string{"-exp", "nonesuch"}, io.Discard, &errw)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	out := errw.String()
	if !strings.Contains(out, `unknown experiment "nonesuch"`) {
		t.Errorf("stderr missing unknown-experiment message:\n%s", out)
	}
	// The usage listing must name every known experiment.
	for _, e := range experiments {
		if !strings.Contains(out, e.name) {
			t.Errorf("usage listing missing experiment %q:\n%s", e.name, out)
		}
	}
}

// TestBadFlagExitsNonzero: an unknown flag is a usage error.
func TestBadFlagExitsNonzero(t *testing.T) {
	t.Parallel()
	var errw bytes.Buffer
	if code := run([]string{"-exp", "fig11", "-nonsense", "1"}, io.Discard, &errw); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if want := "flag provided but not defined: -nonsense"; !strings.Contains(errw.String(), want) {
		t.Errorf("stderr missing %q:\n%s", want, errw.String())
	}
}

// TestNegativeSeriesEveryRejected mirrors the -checkpoint-every guard:
// a negative cadence is a usage error, reported before any experiment
// runs.
func TestNegativeSeriesEveryRejected(t *testing.T) {
	t.Parallel()
	var errw bytes.Buffer
	if code := run([]string{"-exp", "fig11", "-series-every", "-1"}, io.Discard, &errw); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(errw.String(), "-series-every must be >= 0") {
		t.Errorf("stderr missing cadence message:\n%s", errw.String())
	}
}

// TestNegativeCheckpointEveryRejected pins the guard the series flag
// mirrors.
func TestNegativeCheckpointEveryRejected(t *testing.T) {
	t.Parallel()
	var errw bytes.Buffer
	if code := run([]string{"-exp", "fig11", "-checkpoint-every", "-650"}, io.Discard, &errw); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(errw.String(), "-checkpoint-every must be >= 0") {
		t.Errorf("stderr missing cadence message:\n%s", errw.String())
	}
}

// TestBadWorkersRejected: zero or negative workers is a usage error, not
// a silent fallback to sequential.
func TestBadWorkersRejected(t *testing.T) {
	t.Parallel()
	for _, w := range []string{"0", "-3"} {
		var errw bytes.Buffer
		if code := run([]string{"-exp", "fig11", "-workers", w}, io.Discard, &errw); code != 2 {
			t.Fatalf("-workers %s: exit code = %d, want 2", w, code)
		}
		if !strings.Contains(errw.String(), "-workers must be >= 1") {
			t.Errorf("-workers %s: stderr missing workers message:\n%s", w, errw.String())
		}
	}
}

// TestBadFleetPolicyFlagsRejected: the -fleet-* policy overrides are
// gone (no workload set them), so any use of one is an unknown-flag
// usage error.
func TestBadFleetPolicyFlagsRejected(t *testing.T) {
	t.Parallel()
	for _, name := range []string{"fleet-drain-threshold", "fleet-cadence-min", "fleet-cadence-max"} {
		var errw bytes.Buffer
		if code := run([]string{"-exp", "fleet", "-" + name, "1"}, io.Discard, &errw); code != 2 {
			t.Fatalf("-%s: exit code = %d, want 2", name, code)
		}
		if !strings.Contains(errw.String(), "flag provided but not defined: -"+name) {
			t.Errorf("-%s: stderr missing the unknown-flag message:\n%s", name, errw.String())
		}
	}
}

// TestBadWindowMaxRejected: -window-max is gone along with the window
// executor it capped, so any use of it is an unknown-flag usage error.
func TestBadWindowMaxRejected(t *testing.T) {
	t.Parallel()
	for _, v := range []string{"0", "649", "650"} {
		var errw bytes.Buffer
		if code := run([]string{"-exp", "fig11", "-window-max", v}, io.Discard, &errw); code != 2 {
			t.Fatalf("-window-max %s: exit code = %d, want 2", v, code)
		}
		if !strings.Contains(errw.String(), "flag provided but not defined: -window-max") {
			t.Errorf("-window-max %s: stderr missing the unknown-flag message:\n%s", v, errw.String())
		}
	}
}

// TestBadSpeculateFlagsRejected: the removed speculation toggle and depth
// flags are unknown flags — -workers is the only executor setting.
func TestBadSpeculateFlagsRejected(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		argv []string
		want string
	}{
		{"removed depth",
			[]string{"-exp", "fig11", "-workers", "2", "-speculate-depth", "4"},
			"flag provided but not defined: -speculate-depth"},
		{"removed toggle",
			[]string{"-exp", "fig11", "-speculate", "-workers", "2"},
			"flag provided but not defined: -speculate"},
	}
	for _, tc := range cases {
		var errw bytes.Buffer
		if code := run(tc.argv, io.Discard, &errw); code != 2 {
			t.Fatalf("%s: exit code = %d, want 2; stderr:\n%s", tc.name, code, errw.String())
		}
		if !strings.Contains(errw.String(), tc.want) {
			t.Errorf("%s: stderr missing %q:\n%s", tc.name, tc.want, errw.String())
		}
	}
}

// TestProfileMetricsIndependentOfWorkers: without -series the -exp profile
// metrics dump does not depend on the worker count, whichever executor it
// makes Run pick.
func TestProfileMetricsIndependentOfWorkers(t *testing.T) {
	t.Parallel()
	var want []byte
	for i, flags := range [][]string{
		nil,
		{"-workers", "1"},
		{"-workers", "2"},
	} {
		mp := filepath.Join(t.TempDir(), "m.json")
		var errw bytes.Buffer
		if code := run(append([]string{"-exp", "profile", "-metrics", mp}, flags...), io.Discard, &errw); code != 0 {
			t.Fatalf("%v: exit code = %d, want 0; stderr:\n%s", flags, code, errw.String())
		}
		got, err := os.ReadFile(mp)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Errorf("%v: metrics dump differs from the default executor", flags)
		}
	}
}

// TestProfileReportWithoutSpansFails: -profile-report on an experiment
// that never builds a cluster has nothing to profile and must say so.
func TestProfileReportWithoutSpansFails(t *testing.T) {
	t.Parallel()
	var errw bytes.Buffer
	rp := filepath.Join(t.TempDir(), "r.txt")
	if code := run([]string{"-exp", "fig11", "-profile-report", rp}, io.Discard, &errw); code != 1 {
		t.Fatalf("exit code = %d, want 1; stderr:\n%s", code, errw.String())
	}
	if !strings.Contains(errw.String(), "profile-report:") {
		t.Errorf("stderr missing profile-report error:\n%s", errw.String())
	}
}

// TestSeriesAndProfileGolden is the schema-stability satellite: the series
// export, flat metrics JSON, and profiler report from `-exp profile` are
// byte-identical across repeated runs and across -workers 1/2/8, the
// series JSON parses with the documented shape, and the report carries an
// exact critical path.
func TestSeriesAndProfileGolden(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	type dump struct{ series, metrics, report []byte }
	runOnce := func(tag string, workers string) dump {
		sp := filepath.Join(dir, "s"+tag+".json")
		mp := filepath.Join(dir, "m"+tag+".json")
		rp := filepath.Join(dir, "r"+tag+".txt")
		var errw bytes.Buffer
		code := run([]string{"-exp", "profile", "-workers", workers,
			"-series", sp, "-metrics", mp, "-profile-report", rp}, io.Discard, &errw)
		if code != 0 {
			t.Fatalf("workers=%s exit code = %d, stderr:\n%s", workers, code, errw.String())
		}
		var d dump
		var err error
		if d.series, err = os.ReadFile(sp); err != nil {
			t.Fatal(err)
		}
		if d.metrics, err = os.ReadFile(mp); err != nil {
			t.Fatal(err)
		}
		if d.report, err = os.ReadFile(rp); err != nil {
			t.Fatal(err)
		}
		return d
	}

	ref := runOnce("ref", "1")
	for _, tc := range []struct{ tag, workers string }{
		{"again", "1"}, {"w2", "2"}, {"w8", "8"},
	} {
		got := runOnce(tc.tag, tc.workers)
		if !bytes.Equal(got.series, ref.series) {
			t.Errorf("workers=%s: series export differs from reference", tc.workers)
		}
		if !bytes.Equal(got.metrics, ref.metrics) {
			t.Errorf("workers=%s: metrics dump differs from reference", tc.workers)
		}
		if !bytes.Equal(got.report, ref.report) {
			t.Errorf("workers=%s: profiler report differs from reference", tc.workers)
		}
	}

	// Series schema: {"cadence":N,"series":{name:{pid,samples:[{cycle,value}]}}}.
	var doc struct {
		Cadence int64 `json:"cadence"`
		Series  map[string]struct {
			Pid     int `json:"pid"`
			Samples []struct {
				Cycle *int64 `json:"cycle"`
				Value *int64 `json:"value"`
			} `json:"samples"`
		} `json:"series"`
	}
	if err := json.Unmarshal(ref.series, &doc); err != nil {
		t.Fatalf("series export is not valid JSON: %v", err)
	}
	if doc.Cadence <= 0 || len(doc.Series) == 0 {
		t.Fatalf("series export empty: cadence %d, %d series", doc.Cadence, len(doc.Series))
	}
	for name, s := range doc.Series {
		if len(s.Samples) == 0 {
			t.Errorf("series %q has no samples", name)
		}
		for _, p := range s.Samples {
			if p.Cycle == nil || p.Value == nil {
				t.Fatalf("series %q sample missing cycle/value", name)
			}
		}
	}
	for _, want := range []string{"runtime.inflight_vectors", "tsp.busy_cycles", "tsp.stall_cycles"} {
		found := false
		for name := range doc.Series {
			if strings.HasPrefix(name, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("series export missing %s*", want)
		}
	}

	report := string(ref.report)
	for _, section := range []string{"=== profile report ===", "-- occupancy", "-- critical path --"} {
		if !strings.Contains(report, section) {
			t.Errorf("report missing %q", section)
		}
	}

	// CSV flavor: same data, spreadsheet shape.
	cp := filepath.Join(dir, "s.csv")
	var errw bytes.Buffer
	if code := run([]string{"-exp", "profile", "-series", cp}, io.Discard, &errw); code != 0 {
		t.Fatalf("csv run exit code = %d, stderr:\n%s", code, errw.String())
	}
	csv, err := os.ReadFile(cp)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(csv), "series,pid,cycle,value\n") {
		t.Errorf("CSV export missing header: %.80s", csv)
	}
}

// TestTraceAndMetricsDeterministic is the issue's acceptance check: two
// same-seed runs of fig17 must produce byte-identical trace and metrics
// files, and the trace must be valid Chrome trace-event JSON.
func TestTraceAndMetricsDeterministic(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	paths := func(i int) (string, string) {
		return filepath.Join(dir, "t"+string(rune('0'+i))+".json"),
			filepath.Join(dir, "m"+string(rune('0'+i))+".json")
	}
	for i := 1; i <= 2; i++ {
		tr, me := paths(i)
		var errw bytes.Buffer
		if code := run([]string{"-exp", "fig17", "-trace", tr, "-metrics", me}, io.Discard, &errw); code != 0 {
			t.Fatalf("run %d exit code = %d, stderr:\n%s", i, code, errw.String())
		}
	}
	t1, m1 := paths(1)
	t2, m2 := paths(2)
	for _, pair := range [][2]string{{t1, t2}, {m1, m2}} {
		a, err := os.ReadFile(pair[0])
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s and %s differ between identical runs", pair[0], pair[1])
		}
	}

	// Chrome trace-event shape: {"traceEvents":[{name,ph,ts,pid,tid},...]}.
	raw, err := os.ReadFile(t1)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   *float64       `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  *int           `json:"pid"`
			Tid  *int           `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	sawSpan := false
	for _, ev := range trace.TraceEvents {
		if ev.Name == "" || ev.Ph == "" || ev.TS == nil || ev.Pid == nil || ev.Tid == nil {
			t.Fatalf("event missing required fields: %+v", ev)
		}
		if ev.Ph == "X" {
			sawSpan = true
		}
	}
	if !sawSpan {
		t.Error("trace contains no complete (ph=X) spans")
	}
	// Each BERT experiment lays its inferences end to end on a host track
	// of its own: no two thread names share a track, and no span on a
	// host track starts before the one before it ends.
	named := map[[2]int]string{}
	end := map[[2]int]float64{}
	for _, ev := range trace.TraceEvents {
		track := [2]int{*ev.Pid, *ev.Tid}
		switch {
		case ev.Ph == "M" && ev.Name == "thread_name":
			if prev, ok := named[track]; ok {
				t.Errorf("track %v named both %q and %v", track, prev, ev.Args["name"])
			}
			named[track] = fmt.Sprint(ev.Args["name"])
		case ev.Ph == "X" && *ev.Pid == obs.PidHost:
			if *ev.TS < end[track]-1e-3 {
				t.Fatalf("span %s on track %v starts at %.3f, before the previous span ends at %.3f", ev.Name, track, *ev.TS, end[track])
			}
			end[track] = *ev.TS + ev.Dur
		}
	}
	for _, want := range []string{"bert:fig17", "bert:bertbase"} {
		found := false
		for _, name := range named {
			found = found || name == want
		}
		if !found {
			t.Errorf("no trace track named %q; tracks: %v", want, named)
		}
	}

	// The metrics dump must carry the fig17 counters.
	var metrics struct {
		Counters map[string]int64 `json:"counters"`
	}
	rawM, err := os.ReadFile(m1)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(rawM, &metrics); err != nil {
		t.Fatalf("metrics is not valid JSON: %v", err)
	}
	if metrics.Counters["bert.inferences{exp=fig17}"] == 0 {
		t.Errorf("metrics missing bert.inferences{exp=fig17}; counters: %v", metrics.Counters)
	}
}

// TestRecordedDumpsPinned pins the SHA-256 of the -trace, -metrics and
// -series dumps of every experiment that records anything, and of -exp all,
// at -workers 1 and 4; the other experiments emit empty dumps. TestExperimentOutputGolden
// pins only stdout; these are the bytes a recorder refactor must reproduce.
// A change that is meant to move a dump recomputes its hash with
// `go run ./cmd/tspsim -exp <name> -trace t.json -metrics m.json -series s.json`
// and `sha256sum`.
func TestRecordedDumpsPinned(t *testing.T) {
	t.Parallel()
	// The series dump of a run that sampled no cluster barrier.
	const emptySeries = "7a453a7ac67c6a3ead45f0b3e01f646113ed0b49009f8b13a2309738d5ff21c4"
	want := map[string][3]string{ // trace, metrics, series
		"serve": {
			"986dd644056805b3738c6636d0dd04bfe3cb9f28b050fe87dc34ec70f5413beb",
			"dad37b2548652fc9c75616682c9642656b0b27371095927ab1adf8eab6757240",
			"0360b13673d72ed29ca4de7c40b9735c83d1a4ef8c3015a973256ab5ef80093a",
		},
		"profile": {
			"7d2fddc49a8943862f56184f09dbf44c8fc8e225ba55073bac846df39b7cba53",
			"734e58bcd4f92b5f2143ca39dc536e7b191d77a942a022c8b9b7b146f58a15c6",
			"7e8b3eb9389509c00f6cbec3bbbbba7d7518420a4eaee63577b278b889b5d1ef",
		},
		"faults": {
			"87a035167c5a7798a3b1e51edce3345e0c2dec4e137a785f217f39a2d5fab63d",
			"b998ea7ccaac9653b4ae73ebdfc4eb0f146ffb5db5f8185dc6f12fc37e7f7c22",
			"a5805c30a56240d4cacc8d92765910b12f0e5fae8b431c51275531d0d055b718",
		},
		"checkpoint": {
			"c66c08729af468530265ccee383a4212c68dceb46502b8216484535521f8e8d3",
			"c44f370666aa77f79d08b975a0469828a336114dfeeaed9ea05ccebde88bcb42",
			"42bbe0520f69994cb6e56cd52aaa75bb23ee330b673705a6d86e065aae1977d0",
		},
		"table2": {
			"16811555b4da9a7fa4ca9accbd43df1d9b812b540fe32adf6fdf1c2a1a903851",
			"302548bd68ffc67b7519e9eca10fb0cf1a586549ce3b6bced6e0a7486a39a9e5",
			emptySeries,
		},
		"sync": {
			"9cbcafe5c30bc3d66111ecb54b57646747ad999f94af5f2336d6938a6bcb36e3",
			"ffa33c1c7e3814d00d006be06543d7519f7a5744ff33eeac08d7f5be62861c69",
			emptySeries,
		},
		"fig16": {
			"4935b15d82c4319938238baec6ac8061eeda404cd5909637cbedb103beef087b",
			"afb9a0bc68d9e64041172ba97190815715d2d2ffe7d8cfd827e1479b13fc4113",
			emptySeries,
		},
		"fig17": {
			"0e42c9a57315accccfe19118679cb72a9c9820c5c642a094d46c9bf68aa6bbd6",
			"74bcd57f193ad148843025b0ec61744336bcbc4ebf1ad6e2ce61f63ab1fe2c74",
			emptySeries,
		},
		"fig19": {
			"1c19353b93b1da552bde4d483b026704be22085b45ee8f7fe727a6ccdbfa7c79",
			"d59a559cb3cc320d4f7faa9838c8b31d38d064d704a10c0257cb3d919e598878",
			emptySeries,
		},
		"fig20": {
			"70f31362aef673ebc9beb16740d04171aa81cb14a4e409f235f4e9635638afe2",
			"cbf2aef50a8c6b1644a1dd347f3568611e6211c11a9b3147beafbced242b09ec",
			emptySeries,
		},
		"trace": {
			"72efb2bb48c328e85def2ebc95d140433b4a4e1677f8febede3dfcabc18274a0",
			"ab3e81e4c63967010f23dceb7b8b3b2ab58189ea87cfc06f0972695e67a40702",
			emptySeries,
		},
		"par": {
			"9a4c508cd02a2e6013d269411c829a36d2ef98ff46e279e8ad3706a8556a6102",
			"03f5e979140b95346cd928c65b80e636dd00bfedec1121a880d27f16ae48fd65",
			"7260da7b6bb266bcc5170122cb887d5021d34640d64a26d6fa63bac042b21117",
		},
		"fleet": {
			"ada3c4e2cf2882b9406ff30d4471927797c45c28a1e6187aa07d702ccaf2392f",
			"4eaeacdc34ca6ca73399b593f1e2d1c5d9728f5105a3038299931b31df3a112c",
			"d6e8d4e621cbb218bbb91139bb67ce4cccad6d233d1df547edc70c879c8284d4",
		},
		"all": {
			"0806ebe22cbcbbfd893ce500a34ad9471ffaa66e7152b4101ae6a51b830f4c9c",
			"9434a17c202b7ee6b88f03cd1282352a27207c9dae7d711c514e0a192c71e48b",
			"67478ef5a868a49afdf11c2b54ba45701bef414a495b1e656882ce54cb24a43f",
		},
	}
	dir := t.TempDir()
	for _, exp := range []string{"serve", "profile", "faults", "checkpoint",
		"table2", "sync", "fig16", "fig17", "fig19", "fig20", "trace", "par", "fleet", "all"} {
		for _, w := range []string{"1", "4"} {
			t.Run(exp+"-w"+w, func(t *testing.T) {
				t.Parallel()
				paths := [3]string{
					filepath.Join(dir, exp+w+"-trace.json"),
					filepath.Join(dir, exp+w+"-metrics.json"),
					filepath.Join(dir, exp+w+"-series.json"),
				}
				var errw bytes.Buffer
				if code := run([]string{"-exp", exp, "-workers", w,
					"-trace", paths[0], "-metrics", paths[1], "-series", paths[2]}, io.Discard, &errw); code != 0 {
					t.Fatalf("exit code = %d, stderr:\n%s", code, errw.String())
				}
				for i, p := range paths {
					raw, err := os.ReadFile(p)
					if err != nil {
						t.Fatal(err)
					}
					sum := sha256.Sum256(raw)
					if got := hex.EncodeToString(sum[:]); got != want[exp][i] {
						t.Errorf("%s hash %s, want %s", filepath.Base(p), got, want[exp][i])
					}
				}
			})
		}
	}
}

// TestExperimentOutputGolden pins the stdout of every experiment byte for
// byte: the paper figures and tables, the fleet, serving, fault-ladder and
// checkpoint engines, the Fig 8 dynamic network, the executor table and
// the SSN schedules (trace runs ScheduleTransfers, fig16 reaches it through
// the all-reduce, fig20 runs CompileGraph). It walks the experiments slice,
// so an experiment added without a golden fails here. `-exp all` at
// -workers 1 and 4 must print the goldens joined by their headers. Any
// refactor must leave these files unchanged. Regenerate one with
// `go run ./cmd/tspsim -exp <name> > cmd/tspsim/testdata/<name>.golden`
// only when a change is meant to move a number.
func TestExperimentOutputGolden(t *testing.T) {
	t.Parallel()
	// Each subtest checks the stdout of one run against want.
	check := func(name string, want []byte, args ...string) {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var out, errw bytes.Buffer
			if code := run(args, &out, &errw); code != 0 {
				t.Fatalf("%v: exit code = %d, stderr:\n%s", args, code, errw.String())
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("%v: stdout differs from the golden\n--- got ---\n%s", args, out.Bytes())
			}
		})
	}
	var all bytes.Buffer
	for _, e := range experiments {
		want, err := os.ReadFile(filepath.Join("testdata", e.name+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		check(e.name, want, "-exp", e.name)
		fmt.Fprintf(&all, "==== %s — %s ====\n%s\n", e.name, e.desc, want)
	}
	for _, w := range []string{"1", "4"} {
		check("all-w"+w, all.Bytes(), "-exp", "all", "-workers", w)
	}
}

// TestCheckpointFileRoundTrip: a file -checkpoint-save writes restores
// with -restore-from, and the restored run ends byte-identical to the
// straight one. The same file relabelled as format version 2 fails with
// an error, not a panic.
func TestCheckpointFileRoundTrip(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "ring.ckpt")
	var out, errw bytes.Buffer
	if code := run([]string{"-checkpoint-save", path}, &out, &errw); code != 0 {
		t.Fatalf("-checkpoint-save: exit %d: %s", code, errw.String())
	}
	if code := run([]string{"-restore-from", path}, &out, &errw); code != 0 {
		t.Fatalf("-restore-from: exit %d: %s", code, errw.String())
	}
	if !strings.Contains(out.String(), "final state byte-identical to the straight run") {
		t.Errorf("restore did not report byte-identical state:\n%s", out.String())
	}

	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(blob[len("TSPCKPT\x01"):], 2)
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	errw.Reset()
	if code := run([]string{"-restore-from", path}, io.Discard, &errw); code != 1 {
		t.Fatalf("-restore-from a version-2 file: exit %d, want 1", code)
	}
	if !strings.Contains(errw.String(), "unsupported version 2") {
		t.Errorf("stderr does not name the version: %s", errw.String())
	}
}

// TestProfileLeavesNoCadence: profileExp arms a series cadence only for
// its own pipeline run, so an experiment after it on the same recorder
// records no series nobody asked for.
func TestProfileLeavesNoCadence(t *testing.T) {
	t.Parallel()
	e := &env{out: io.Discard, rec: obs.New(), workers: 1}
	if err := profileExp(e); err != nil {
		t.Fatal(err)
	}
	if c := e.rec.SeriesCadence(); c != 0 {
		t.Errorf("series cadence after profile = %d, want 0", c)
	}
	if err := fleetExp(e); err != nil {
		t.Fatal(err)
	}
	for name := range e.rec.State().Series {
		if strings.HasPrefix(name, "fleet.") {
			t.Fatalf("fleet registered series %s with no cadence asked for", name)
		}
	}
}
