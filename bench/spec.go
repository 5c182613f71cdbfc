package main

import (
	"time"

	"repro/internal/npb"
)

// metricDef names one reported number. Bound is set on end-to-end metrics
// only: the share of the parent's median by which the metric may worsen.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// forms says what solve_s, form_a_s, form_b_s and form_c_s time on this
	// workload; the tables print it beside the number.
	forms [4]string
	new   func() workload
}

// benchmarkSpec is BENCHMARK.json; `bench spec` prints it and the schema
// test holds the file at the root of the repository to it.
type benchmarkSpec struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

const runSeconds = 15

var workloads = []workloadDef{
	{"table1", "the paper's Table 1 (CG W, EP S, IS A, Mandelbrot 1024): compute-bound, so runtime-overhead changes must not move it and kernel or schedule changes do",
		[4]string{"sum over the four kernels of the GoMP time", "sum of the Reference (goroutine) times", "sum of the Serial times", "GoMP Mandelbrot, the imbalanced kernel"},
		func() workload { return &table1{} }},
	{"fine-step", "64x64 Jacobi forked per step and in one persistent region, plus CG S: region bodies of a few microseconds, so fork, barrier, sched and reduction are the run time",
		[4]string{"a + b + c", "the Jacobi steps, one region forked per step", "the Jacobi steps inside one persistent region", "NPB CG class S"},
		func() workload { return &finestep{} }},
	{"task-dag", "the same 4096-task depend wavefront rebuilt sweep after sweep, plus fib and n-queens spawn trees: the task layer with and without dependences",
		[4]string{"a + b + c", "the wavefront sweeps of depend tasks", "fib spawn tree", "n-queens spawn tree"},
		func() workload { return &taskdag{} }},
	{"serve", "open loop: nproc tenants fire 64Ki-element reduction regions on seeded Poisson schedules at a fixed rate under thread-limit nproc; the arbiter and shard table contend",
		[4]string{"mean region latency from the due time, open loop", "p50 latency, open loop", "p90 latency, open loop", "a closed-loop burst: every tenant fires its share back to back"},
		func() workload { return &serve{} }},
	{"gompcc-module", "gompcc over a seeded 1200-file module, cold, warm and after a one-file edit: directive, transform and sema when cold, modpipe's cache when warm; the runtime does little",
		[4]string{"a + 10 b + 10 c, one developer session", "compile from nothing, strict sema, nothing written", "re-run with nothing changed", "re-run after one file's content changed"},
		func() workload { return &gompccModule{} }},
	{"offload", "target on the subprocess device: small launches on resident data, then map(tofrom:) of 8 MiB around saxpy; the only workload that crosses the device pipe",
		[4]string{"a + b + c", "small launches on resident data", "map(tofrom:) round trips of the large array around saxpy", "small launches that each map their array to and from"},
		func() workload { return &offload{} }},
}

// The driver's contract has every workload report every end-to-end metric,
// and the issue's fifteen belong to one workload each. So the bounded
// metrics are slots every workload fills: solve_s, the time a caller waits
// for the workload's verified result, and form_a_s, form_b_s, form_c_s, the
// median time of each of the workload's forms at its frozen size (workloads
// above say which). A form that slows is caught by its own slot even when it
// is a small share of solve_s. The issue's named numbers (forkstep_per_s,
// lat_p99_us, ...) are the same samples in the issue's units and lead the
// per-layer list.
//
// Every bound is 0.25, the widest the contract allows and wider than the
// 0.15 the issue wanted as a ceiling. The contract wants a spread below a
// third of its bound. On the sandbox, sets of ten runs spread by 2-10 % on a
// quiet machine, and its two processors slow by a tenth to a half for a
// minute or two every few minutes, which puts three or four slow runs in a
// set of ten and its spread at 13-23 %. No run length that fits the
// contract's hour cures that (README, "Measured steadiness").
var endToEnd = []metricDef{
	{"solve_s", "s", "lower", 0.25},
	{"form_a_s", "s", "lower", 0.25},
	{"form_b_s", "s", "lower", 0.25},
	{"form_c_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer lists the numbers of the traced run: first each workload's own
// headline numbers under the issue's names (always measured untraced), then
// the layers. A workload
// that does not exercise a layer reports 0 for it.
var perLayer = append(append([]metricDef(nil), headlines...), layers...)

// untracedMetrics are the numbers that always come from the untraced pass.
var untracedMetrics = append(append([]metricDef(nil), endToEnd...), headlines...)

// allMetrics is every declared metric, in the order the tables print them.
var allMetrics = append(append([]metricDef(nil), endToEnd...), perLayer...)

var headlines = []metricDef{
	{Name: "omp_vs_ref", Unit: "ratio", Better: "lower"},
	{Name: "speedup", Unit: "ratio", Better: "higher"},
	{Name: "forkstep_per_s", Unit: "1/s", Better: "higher"},
	{Name: "barrierstep_per_s", Unit: "1/s", Better: "higher"},
	{Name: "dag_tasks_per_s", Unit: "1/s", Better: "higher"},
	{Name: "tree_tasks_per_s", Unit: "1/s", Better: "higher"},
	{Name: "lat_p50_us", Unit: "us", Better: "lower"},
	{Name: "lat_p99_us", Unit: "us", Better: "lower"},
	{Name: "cold_files_per_s", Unit: "1/s", Better: "higher"},
	{Name: "compile_files_per_s", Unit: "1/s", Better: "higher"},
	{Name: "warm_ms", Unit: "ms", Better: "lower"},
	{Name: "touch1_ms", Unit: "ms", Better: "lower"},
	{Name: "target_per_s", Unit: "1/s", Better: "higher"},
	{Name: "map_MB_per_s", Unit: "MB/s", Better: "higher"},
}

var layers = []metricDef{
	{Name: "npb.cg_s", Unit: "s", Better: "lower"},
	{Name: "npb.cg.ref_s", Unit: "s", Better: "lower"},
	{Name: "npb.cg.serial_s", Unit: "s", Better: "lower"},
	{Name: "npb.ep_s", Unit: "s", Better: "lower"},
	{Name: "npb.ep.ref_s", Unit: "s", Better: "lower"},
	{Name: "npb.ep.serial_s", Unit: "s", Better: "lower"},
	{Name: "npb.is_s", Unit: "s", Better: "lower"},
	{Name: "npb.is.ref_s", Unit: "s", Better: "lower"},
	{Name: "npb.is.serial_s", Unit: "s", Better: "lower"},
	{Name: "mandelbrot.omp_s", Unit: "s", Better: "lower"},
	{Name: "mandelbrot.ref_s", Unit: "s", Better: "lower"},
	{Name: "mandelbrot.serial_s", Unit: "s", Better: "lower"},
	{Name: "wavefront.sweep_ms", Unit: "ms", Better: "lower"},
	{Name: "wavefront.serial_ms", Unit: "ms", Better: "lower"},
	{Name: "fine.cg_ms", Unit: "ms", Better: "lower"},

	{Name: "core.parallel_ns", Unit: "ns", Better: "lower"},
	{Name: "core.for_ns", Unit: "ns", Better: "lower"},
	{Name: "core.reducefor_ns", Unit: "ns", Better: "lower"},
	{Name: "core.single_ns", Unit: "ns", Better: "lower"},
	{Name: "core.critical_ns", Unit: "ns", Better: "lower"},
	{Name: "core.ordered_ns", Unit: "ns", Better: "lower"},

	{Name: "kmp.fork_ns", Unit: "ns", Better: "lower"},
	{Name: "kmp.fork_cold_us", Unit: "us", Better: "lower"},
	{Name: "kmp.shrunk", Unit: "count", Better: "lower"},
	{Name: "kmp.serialized", Unit: "count", Better: "lower"},
	{Name: "kmp.shard_steals", Unit: "count", Better: "lower"},
	{Name: "kmp.live_workers", Unit: "count", Better: "lower"},
	{Name: "kmp.regions", Unit: "count", Better: "lower"},

	{Name: "barrier.central_ns", Unit: "ns", Better: "lower"},
	{Name: "barrier.tree_ns", Unit: "ns", Better: "lower"},
	{Name: "barrier.dissemination_ns", Unit: "ns", Better: "lower"},
	{Name: "barrier.enters", Unit: "count", Better: "lower"},

	{Name: "sched.static_next_ns", Unit: "ns", Better: "lower"},
	{Name: "sched.dynamic_next_ns", Unit: "ns", Better: "lower"},
	{Name: "sched.guided_next_ns", Unit: "ns", Better: "lower"},
	{Name: "sched.steal_next_ns", Unit: "ns", Better: "lower"},
	{Name: "sched.chunks", Unit: "count", Better: "lower"},

	{Name: "reduction.accumulate_ns", Unit: "ns", Better: "lower"},
	{Name: "reduction.atomic_ns", Unit: "ns", Better: "lower"},
	{Name: "reduction.critical_ns", Unit: "ns", Better: "lower"},

	{Name: "lock.spin_ns", Unit: "ns", Better: "lower"},
	{Name: "lock.ticket_ns", Unit: "ns", Better: "lower"},
	{Name: "lock.mutex_ns", Unit: "ns", Better: "lower"},
	{Name: "lock.spin_contended_ns", Unit: "ns", Better: "lower"},

	{Name: "task.spawn_ns", Unit: "ns", Better: "lower"},
	{Name: "task.depend_ns", Unit: "ns", Better: "lower"},
	{Name: "task.created", Unit: "count", Better: "lower"},
	{Name: "task.run", Unit: "count", Better: "lower"},
	{Name: "task.ready", Unit: "count", Better: "lower"},

	{Name: "serve.capacity_per_s", Unit: "1/s", Better: "higher"},
	{Name: "serve.offered_per_s", Unit: "1/s", Better: "higher"},
	{Name: "serve.window_regions", Unit: "count", Better: "higher"},
	{Name: "serve.gen_lag_us", Unit: "us", Better: "lower"},
	{Name: "serve.lat_mean_us", Unit: "us", Better: "lower"},
	{Name: "serve.lat_p90_us", Unit: "us", Better: "lower"},

	{Name: "device.host_target_us", Unit: "us", Better: "lower"},
	{Name: "device.subproc_target_us", Unit: "us", Better: "lower"},
	{Name: "device.subproc_map_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "device.map_to_bytes", Unit: "count", Better: "lower"},
	{Name: "device.map_from_bytes", Unit: "count", Better: "lower"},
	{Name: "device.worker_spawn_ms", Unit: "ms", Better: "lower"},

	{Name: "directive.parse_ns", Unit: "ns", Better: "lower"},
	{Name: "directive.bodies", Unit: "count", Better: "lower"},
	{Name: "directive.diags", Unit: "count", Better: "lower"},
	{Name: "transform.file_us", Unit: "us", Better: "lower"},
	{Name: "transform.out_bytes", Unit: "count", Better: "lower"},
	{Name: "sema.check_us", Unit: "us", Better: "lower"},
	{Name: "sema.units", Unit: "count", Better: "lower"},
	{Name: "sema.soft_errors", Unit: "count", Better: "lower"},

	{Name: "modpipe.cold_ms", Unit: "ms", Better: "lower"},
	{Name: "modpipe.discover_ms", Unit: "ms", Better: "lower"},
	{Name: "modpipe.transformed", Unit: "count", Better: "lower"},
	{Name: "modpipe.cache_hits", Unit: "count", Better: "higher"},
	{Name: "modpipe.sema_cache_hits", Unit: "count", Better: "higher"},
	{Name: "modpipe.touch1_retransformed", Unit: "count", Better: "lower"},

	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "trace.events", Unit: "count", Better: "lower"},
}

func spec() benchmarkSpec {
	return benchmarkSpec{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}

// sizes freezes every problem size, rate and repetition count. Only
// repetitions inside a run scale with -seconds; these do not.
type sizes struct {
	cgClass, epClass, isClass npb.Class
	mandel                    int

	jacobiN, jacobiSteps int
	fineCG               npb.Class

	wfN, wfBlock, wfSweeps   int
	fibN, fibCut, nqN, nqCut int
	teamRounds               int // task-dag renews its runtime every so many rounds

	serveWork       int     // elements each region reduces
	serveRate       float64 // open-loop regions/s over all tenants
	serveBatch      int     // regions of one closed-loop burst
	serveBursts     int
	serveWindow     time.Duration // latency percentiles are taken per window
	serveMaxSeconds float64       // length of the generated schedules

	corpusFiles, warmReps, touchReps int

	launches, mappedLaunches, launchElems, mapElems, mapReps int

	probeOps int // operations per micro-probe batch
}

var fullSizes = sizes{
	cgClass: npb.ClassW, epClass: npb.ClassS, isClass: npb.ClassA, mandel: 1024,
	jacobiN: 64, jacobiSteps: 20000, fineCG: npb.ClassS,
	wfN: 1024, wfBlock: 16, wfSweeps: 8, fibN: 30, fibCut: 12, nqN: 10, nqCut: 4, teamRounds: 20,
	serveWork: 64 << 10, serveRate: 2200, serveBatch: 1000, serveBursts: 5, serveWindow: time.Second, serveMaxSeconds: 60,
	corpusFiles: 1200, warmReps: 10, touchReps: 10,
	launches: 10000, mappedLaunches: 1000, launchElems: 1024, mapElems: 1 << 20, mapReps: 5,
	probeOps: 1_000_000,
}

// smokeSizes run every workload once in a few seconds (go test, -smoke).
var smokeSizes = sizes{
	cgClass: npb.ClassS, epClass: npb.ClassS, isClass: npb.ClassS, mandel: 128,
	jacobiN: 64, jacobiSteps: 200, fineCG: npb.ClassS,
	wfN: 256, wfBlock: 16, wfSweeps: 2, fibN: 18, fibCut: 10, nqN: 7, nqCut: 3, teamRounds: 20,
	serveWork: 4 << 10, serveRate: 2000, serveBatch: 200, serveBursts: 2, serveWindow: 100 * time.Millisecond, serveMaxSeconds: 1,
	corpusFiles: 60, warmReps: 2, touchReps: 2,
	launches: 50, mappedLaunches: 20, launchElems: 256, mapElems: 1 << 14, mapReps: 2,
	probeOps: 20_000,
}
