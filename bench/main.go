// Command bench is GoMP's one benchmark: six named workloads, each verified
// against an oracle that is not the code under test, five end-to-end metrics
// every workload reports, and a traced run that yields the per-layer
// numbers. BENCHMARK.json at the root of the repository is its contract;
// README.md in this directory says how to run it and what each number means.
//
//	go run ./bench                                  every workload, a table each
//	go run ./bench -trace                           the same, with the traced run
//	go run ./bench --workload serve --seed 1 --seconds 15 --trace 0
//	go run ./bench compare A.jsonl B.jsonl
//
// bench/run.sh is the same command for the driver, which allows no write
// outside the checkout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	gomp "repro"
	"repro/internal/trace"
)

// benchProcs is the processor count every run uses: min(nproc, 4).
func benchProcs() int { return min(runtime.NumCPU(), 4) }

func main() {
	runtime.GOMAXPROCS(benchProcs())
	// A process spawned as the offload workload's device worker serves
	// kernels here and never returns.
	gomp.WorkerInit()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is one workload's run, as written to -out and read by compare.
type result struct {
	Workload  string              `json:"workload"`
	Seed      int64               `json:"seed"`
	Traced    bool                `json:"traced"`
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]reported `json:"metrics"`
}

type reported struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	if len(args) > 0 && args[0] == "spec" {
		buf, _ := json.MarshalIndent(spec(), "", "  ")
		fmt.Fprintf(stdout, "%s\n", buf)
		return 0
	}

	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload and end with the contract's one-line JSON result (default: all, with a table each)")
	seed := fs.Int64("seed", 1, "seed of the input generators; 2 is the held-out seed for confirming a claim")
	seconds := fs.Float64("seconds", runSeconds, "how long each workload measures")
	traced := fs.Bool("trace", false, "add the traced run: per-layer metrics, micro-probes, span files under bench/out")
	smoke := fs.Bool("smoke", false, "tiny sizes, one round per workload")
	out := fs.String("out", "", "append each workload's result to this file, one JSON object per line")
	if err := fs.Parse(joinTraceValue(args)); err != nil {
		return 2
	}

	c := &config{sz: &fullSizes, seed: *seed, nproc: benchProcs()}
	if *smoke {
		c.sz, *seconds = &smokeSizes, 0
	}
	outDir := "out"
	if st, err := os.Stat("bench"); err == nil && st.IsDir() {
		outDir = filepath.Join("bench", "out")
	}
	c.tmp = filepath.Join(outDir, fmt.Sprintf("tmp-%d", os.Getpid()))
	if err := os.MkdirAll(c.tmp, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(c.tmp)

	budget := time.Duration(*seconds * float64(time.Second))
	selected := workloads
	if *name != "" {
		selected = nil
		for _, w := range workloads {
			if w.Name == *name {
				selected = []workloadDef{w}
			}
		}
		if selected == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
	}

	env := environment()
	fmt.Fprintf(stdout, "bench: commit %s, %s, nproc %d, GOMAXPROCS %d, seed %d\n",
		env["commit"], env["go"], runtime.NumCPU(), runtime.GOMAXPROCS(0), *seed)
	allCorrect := true
	var last result
	for _, def := range selected {
		res, err := measure1(def, c, budget, *traced, outDir)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", def.Name, err)
			return 1
		}
		printTable(stdout, res)
		if *out != "" {
			if err := appendResult(*out, res); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
		}
		allCorrect = allCorrect && res.Correct
		last = res
	}

	if *name != "" {
		// The contract's result line: the end-to-end metrics of an
		// untraced run, the per-layer metrics of a traced one.
		defs := endToEnd
		if *traced {
			defs = perLayer
		}
		line := map[string]any{"correct": last.Correct, "attempted": last.Attempted, "failed": last.Failed}
		metrics := map[string]map[string]any{}
		for _, d := range defs {
			metrics[d.Name] = map[string]any{"value": last.Metrics[d.Name].Value, "unit": d.Unit}
		}
		line["metrics"] = metrics
		buf, _ := json.Marshal(line)
		fmt.Fprintf(stdout, "%s\n", buf)
	} else {
		// This benchmark measures; it never claims a gain.
		buf, _ := json.Marshal(struct {
			Env     map[string]any `json:"env"`
			Seed    int64          `json:"seed"`
			Correct bool           `json:"correct"`
			Claim   *string        `json:"claim"`
		}{env, *seed, allCorrect, nil})
		fmt.Fprintf(stdout, "%s\n", buf)
	}
	if !allCorrect {
		return 1
	}
	return 0
}

// joinTraceValue lets -trace be both the switch of `bench -trace` and the
// valued flag of the contract's `--trace 0|1`.
func joinTraceValue(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		if (args[i] == "-trace" || args[i] == "--trace") && i+1 < len(args) {
			switch args[i+1] {
			case "0", "1", "true", "false":
				out = append(out, "-trace="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, args[i])
	}
	return out
}

func environment() map[string]any {
	commit := "unknown"
	if b, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(b))
	}
	return map[string]any{"commit": commit, "go": runtime.Version(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0)}
}

// measure1 runs one workload: set-up, the untraced pass that yields the
// end-to-end metrics, and with traced the second, traced pass, the
// micro-probes and the span file.
func measure1(def workloadDef, c *config, budget time.Duration, traced bool, outDir string) (result, error) {
	w := def.new()
	defer w.close()
	if traced {
		budget /= 2
	}
	// An untraced run sets up at least three times, and a cheap set-up up
	// to ten times within a second, so setup_s is a median worth the name.
	// The traced run reports no setup_s and sets up once.
	var setups []float64
	again := func(n int, total float64) bool {
		return n == 0 || (!traced && (n < 3 || (n < 10 && total < 1)))
	}
	for total := 0.0; again(len(setups), total); {
		w.close() // tearing the previous set-up down is not set-up time
		t0 := time.Now()
		if err := w.setup(c); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		total += setups[len(setups)-1]
	}

	un := newPass(c, nil, budget)
	w.run(un)
	un.finish()
	vals := w.metrics(un)
	for k, v := range un.vals {
		vals[k] = one(v)
	}
	vals["setup_s"] = measure{median(setups), len(setups)}
	attempted, failed := un.attempted, un.failed

	if traced {
		tr := newTracer()
		tp := newPass(c, tr, budget)
		trace.Set(tr.handle)
		w.run(tp)
		trace.Clear()
		tp.finish()
		attempted, failed = attempted+tp.attempted, failed+tp.failed
		vals = layerValues(vals, w.metrics(tp), tp)
		for k, v := range w.probes(c) {
			vals[k] = v
		}
		if err := tr.write(filepath.Join(outDir, "trace-"+def.Name+".json")); err != nil {
			return result{}, err
		}
	}

	res := result{Workload: def.Name, Seed: c.seed, Traced: traced, Correct: failed == 0,
		Attempted: attempted, Failed: failed, Metrics: map[string]reported{}}
	for _, d := range allMetrics {
		if v, ok := vals[d.Name]; ok {
			res.Metrics[d.Name] = reported{v.v, d.Unit, v.n}
			delete(vals, d.Name)
		}
	}
	for k := range vals {
		return result{}, fmt.Errorf("metric %q is not declared in spec.go", k)
	}
	return res, nil
}

// layerValues merges the traced pass into the untraced pass's numbers: the
// end-to-end and headline numbers stay untraced, the layers' times come
// from the spans, the counts from the first traced round's events and the
// public accessors.
func layerValues(untraced, tracedVals map[string]measure, tp *pass) map[string]measure {
	vals := map[string]measure{}
	for k, v := range tracedVals {
		vals[k] = v
	}
	for _, d := range untracedMetrics {
		if v, ok := untraced[d.Name]; ok {
			vals[d.Name] = v
		}
	}
	for k, v := range tp.vals {
		vals[k] = one(v)
	}
	for name, ev := range map[string]trace.Event{
		"kmp.regions": trace.EvRegionFork, "barrier.enters": trace.EvBarrierEnter, "sched.chunks": trace.EvLoopChunk,
		"task.created": trace.EvTaskCreate, "task.run": trace.EvTaskRun, "task.ready": trace.EvTaskReady,
	} {
		vals[name] = one(tp.roundEvents[ev])
	}
	vals["device.map_to_bytes"] = one(tp.roundArgs[trace.EvMapTo])
	vals["device.map_from_bytes"] = one(tp.roundArgs[trace.EvMapFrom])
	total := 0.0
	for _, n := range tp.roundEvents {
		total += n
	}
	vals["trace.events"] = one(total)
	if base := untraced["solve_s"].v; base > 0 {
		vals["trace.overhead_frac"] = one(tracedVals["solve_s"].v/base - 1)
	}
	return vals
}

func printTable(w io.Writer, res result) {
	fmt.Fprintf(w, "\n%s: %d operations attempted, %d failed\n", res.Workload, res.Attempted, res.Failed)
	what := map[string]string{}
	for _, def := range workloads {
		if def.Name == res.Workload {
			for i, slot := range []string{"solve_s", "form_a_s", "form_b_s", "form_c_s"} {
				what[slot] = ": " + def.forms[i]
			}
		}
	}
	for _, d := range allMetrics {
		if r, ok := res.Metrics[d.Name]; ok {
			fmt.Fprintf(w, "  %-30s %16.6g %-6s (%s is better, n=%d)%s\n", d.Name, r.Value, r.Unit, d.Better, r.Samples, what[d.Name])
		}
	}
	if _, ok := res.Metrics["speedup"]; res.Workload == "table1" && !ok {
		fmt.Fprintf(w, "  speedup and omp_vs_ref are not reported: GOMAXPROCS is %d, and on one processor they read 1.00 whatever the runtime does\n", runtime.GOMAXPROCS(0))
	}
}

func appendResult(path string, res result) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	buf, _ := json.Marshal(res)
	if _, err := f.Write(append(buf, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
