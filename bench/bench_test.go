package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"

	gomp "repro"
)

// The offload workload re-executes this binary as its device worker.
func TestMain(m *testing.M) {
	runtime.GOMAXPROCS(benchProcs())
	gomp.WorkerInit()
	os.Exit(m.Run())
}

// TestSmokeEveryWorkload runs all six workloads, traced, at smoke sizes:
// every operation verifies, every end-to-end metric is a positive number,
// and every per-layer metric in spec.go is produced by some workload.
func TestSmokeEveryWorkload(t *testing.T) {
	outDir := t.TempDir()
	c := &config{sz: &smokeSizes, seed: 1, nproc: benchProcs(), tmp: filepath.Join(outDir, "tmp")}
	produced := map[string]bool{}
	for _, def := range workloads {
		res, err := measure1(def, c, 0, true, outDir)
		if err != nil {
			t.Fatalf("%s: %v", def.Name, err)
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("%s: correct %v, %d attempted, %d failed", def.Name, res.Correct, res.Attempted, res.Failed)
		}
		for _, d := range endToEnd {
			if v := res.Metrics[d.Name].Value; !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want a positive number", def.Name, d.Name, v)
			}
		}
		for name := range res.Metrics {
			produced[name] = true
		}
		if _, err := os.Stat(filepath.Join(outDir, "trace-"+def.Name+".json")); err != nil {
			t.Errorf("%s: no span file: %v", def.Name, err)
		}
	}
	for _, d := range perLayer {
		if !produced[d.Name] && benchProcs() >= 2 {
			t.Errorf("per-layer metric %s is declared but no workload reports it", d.Name)
		}
	}
}

// TestContractLine drives the command line the driver uses and checks the
// shape of the last line.
func TestContractLine(t *testing.T) {
	for _, traced := range []string{"0", "1"} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-smoke", "-out", filepath.Join(t.TempDir(), "r.jsonl"),
			"--workload", "task-dag", "--seed", "2", "--seconds", "1", "--trace", traced}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("exit %d: %s", code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var line struct {
			Correct   *bool `json:"correct"`
			Attempted *int  `json:"attempted"`
			Failed    *int  `json:"failed"`
			Metrics   map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			} `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
		}
		want := endToEnd
		if traced == "1" {
			want = perLayer
		}
		if line.Correct == nil || line.Attempted == nil || line.Failed == nil || len(line.Metrics) != len(want) {
			t.Fatalf("trace %s: result line lacks a key or has %d metrics, want %d", traced, len(line.Metrics), len(want))
		}
		for _, d := range want {
			if m, ok := line.Metrics[d.Name]; !ok || m.Value == nil || m.Unit != d.Unit {
				t.Errorf("trace %s: metric %s missing or with the wrong unit", traced, d.Name)
			}
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to spec.go and to the limits of
// the benchmark contract.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file, want any
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	buf, _ := json.Marshal(spec())
	json.Unmarshal(buf, &want)
	if !reflect.DeepEqual(file, want) {
		t.Error("BENCHMARK.json differs from spec.go; regenerate it with `go run ./bench spec > BENCHMARK.json`")
	}

	s := spec()
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if n := len(s.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range s.Workloads {
		use(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(s.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	setup := false
	for _, d := range s.EndToEnd {
		use(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, d := range s.PerLayer {
		use(d.Name)
		if d.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", d.Name)
		}
	}
	for _, d := range allMetrics {
		if !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("%s: unit %q, better %q", d.Name, d.Unit, d.Better)
		}
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 || len(raw) > 64<<10 {
		t.Errorf("run_seconds %d, file of %d bytes", s.RunSeconds, len(raw))
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles = %v, %v; want 1, 4", q1, q3)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := newTracer()
	l := tr.newLane()
	l.spans = []span{
		{Name: "round", Start: 0, End: 100, Parent: -1},
		{Name: "layer", Start: 10, End: 40, Parent: 0},
		{Name: "layer", Start: 50, End: 90, Parent: 0},
	}
	self := tr.selfSeconds()
	if got := self["round"][0] * 1e9; math.Abs(got-30) > 1e-6 {
		t.Errorf("round self time %v ns, want 30", got)
	}
	if len(self["layer"]) != 2 {
		t.Errorf("layer spans: %v", self["layer"])
	}
}

func TestJoinTraceValue(t *testing.T) {
	got := joinTraceValue([]string{"--workload", "serve", "--trace", "1", "-trace", "--trace", "0"})
	want := []string{"--workload", "serve", "-trace=1", "-trace", "-trace=0"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestCompareVerdicts(t *testing.T) {
	// mk is a side whose every end-to-end metric of serve has these values,
	// except the metrics named in without.
	mk := func(values []float64, failed int, without ...string) *side {
		metrics := map[string][]float64{}
		for _, d := range endToEnd {
			metrics[d.Name] = values
		}
		for _, name := range without {
			delete(metrics, name)
		}
		return &side{values: map[string]map[string][]float64{"serve": metrics},
			attempted: map[string]int{"serve": 100}, failed: map[string]int{"serve": failed}}
	}
	base := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00}
	scale := func(k float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * k
		}
		return out
	}
	noisy := []float64{0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1, 1.0, 1.0}
	gone := &side{values: map[string]map[string][]float64{}, attempted: map[string]int{}, failed: map[string]int{}}
	for _, tc := range []struct {
		name    string
		b       *side
		code    int
		verdict string
	}{
		{"same", mk(scale(1.03), 0), 0, "within bound"},
		{"slower", mk(scale(1.3), 0), 1, "REGRESSION"},
		{"noisy", mk(noisy, 0), 0, "unresolved"},
		{"fails more", mk(scale(1), 3), 1, "B FAILS MORE"},
		{"metric gone", mk(scale(1), 0, "form_b_s"), 1, "MISSING"},
		{"metric zero", mk(scale(0), 0), 1, "MISSING"},
		{"workload gone", gone, 1, "MISSING"},
	} {
		var out bytes.Buffer
		if code := compareSides(mk(base, 0), tc.b, &out); code != tc.code || !strings.Contains(out.String(), tc.verdict) {
			t.Errorf("%s: exit %d, want %d with %q:\n%s", tc.name, code, tc.code, tc.verdict, out.String())
		}
	}
}
