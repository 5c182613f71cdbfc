// Package gomp is GoMP: OpenMP for Go. It reproduces the system of
// "Implementing OpenMP for Zig to Enable Its Use in HPC Context" (Kacs,
// Brown, Lee — ICPP 2024 workshops): a preprocessing compiler front end that
// intercepts OpenMP directives written as comments and lowers them onto a
// fork-join runtime with OpenMP semantics — parallel regions, worksharing
// loops with the full schedule clause (including the work-stealing
// schedule(nonmonotonic:dynamic) and collapse(n) loop flattening),
// data-sharing clauses, reductions, synchronisation constructs and
// explicit tasks.
//
// There are two ways to use it. Directly, through this package's API — a
// parallel region is a closure receiving its *Thread context:
//
//	sum := 0.0
//	gomp.Parallel(func(t *gomp.Thread) {
//		s := gomp.ReduceFor(t, n, gomp.OpSum, func(i int, acc float64) float64 {
//			return acc + work(i)
//		}, gomp.Schedule(gomp.Dynamic, 64))
//		t.Master(func() { sum = s })
//	})
//
// Or through the preprocessor (cmd/gompcc), writing OpenMP directives as
// comments — exactly the paper's approach, since Go, like Zig, has no
// native pragmas:
//
//	//omp parallel for reduction(+:sum) schedule(dynamic,64)
//	for i := 0; i < n; i++ {
//		sum += work(i)
//	}
//
// gompcc rewrites such files into the first form.
//
// The package-level functions operate on the Default runtime, which is
// configured from OMP_NUM_THREADS, OMP_SCHEDULE and the other OMP_*
// environment variables on first use.
package gomp

import (
	"repro/internal/core"
	"repro/internal/icv"
	"repro/internal/reduction"
	"repro/internal/sched"
)

// Thread is a team member's execution context; see core.Thread.
type Thread = core.Thread

// Runtime is an OpenMP device (worker pool + ICVs); see core.Runtime.
type Runtime = core.Runtime

// Taskgraph is a task graph recorded at its first encounter and replayed at
// the later ones (Thread.Taskgraph); see core.Taskgraph.
type Taskgraph = core.Taskgraph

// OrderedCtx is the handle for ordered regions inside ForOrdered loops.
type OrderedCtx = core.OrderedCtx

// DoacrossCtx is the per-iteration handle inside ForDoacross loops —
// `ordered(n)` with `depend(sink: vec)` (Wait) and `depend(source)` (Post).
type DoacrossCtx = core.DoacrossCtx

// Loop is a canonical iteration space {Begin, End, Step} (half-open, Step
// may be negative).
type Loop = sched.Loop

// ParOption configures parallel regions; ForOption configures worksharing
// loops, single and sections; TaskOption configures tasks and taskloops
// (depend, priority, final, if, num_tasks, nogroup).
type (
	ParOption  = core.ParOption
	ForOption  = core.ForOption
	TaskOption = core.TaskOption
)

// Op is a reduction operator.
type Op = reduction.Op

// Reduction operators for ReduceFor and Reduce.
const (
	OpSum  = reduction.Sum
	OpProd = reduction.Prod
	OpMax  = reduction.Max
	OpMin  = reduction.Min
	OpAnd  = reduction.BitAnd
	OpOr   = reduction.BitOr
	OpXor  = reduction.BitXor
)

// Schedule kinds for the Schedule option (the schedule clause).
const (
	// Static divides iterations into blocks (or round-robins chunks).
	Static = icv.StaticSched
	// Dynamic hands out chunks first-come first-served.
	Dynamic = icv.DynamicSched
	// Guided hands out exponentially shrinking chunks.
	Guided = icv.GuidedSched
	// Auto lets the runtime choose.
	Auto = icv.AutoSched
	// RuntimeSchedule defers to OMP_SCHEDULE / SetSchedule.
	RuntimeSchedule = icv.RuntimeSched
	// Steal is the work-stealing scheduler (schedule(nonmonotonic:dynamic),
	// libomp's static_steal): per-thread iteration ranges popped locally,
	// with idle threads stealing half a victim's remaining tail. Best for
	// imbalanced bodies at fine grain, where Dynamic's shared cursor becomes
	// the bottleneck.
	Steal = icv.StealSched
)

// Number constrains reduction element types.
type Number = reduction.Number

// NumThreads is the num_threads clause.
func NumThreads(n int) ParOption { return core.NumThreads(n) }

// If is the if clause; false serialises the region.
func If(cond bool) ParOption { return core.If(cond) }

// Schedule is the schedule clause; chunk 0 means unspecified.
func Schedule(kind icv.ScheduleKind, chunk int) ForOption { return core.Schedule(kind, chunk) }

// NoWait is the nowait clause.
func NoWait() ForOption { return core.NoWait() }

// DependIn is depend(in: addrs...) on a task: wait for the last sibling
// writer of each named storage. Addresses are pointer-like values (&x,
// slices, ...); dependences match by address identity.
func DependIn(addrs ...any) TaskOption { return core.DependIn(addrs...) }

// DependOut is depend(out: addrs...): wait for the last writer and every
// reader since, then become the last writer.
func DependOut(addrs ...any) TaskOption { return core.DependOut(addrs...) }

// DependInOut is depend(inout: addrs...): read-modify-write ordering.
func DependInOut(addrs ...any) TaskOption { return core.DependInOut(addrs...) }

// Priority is the priority clause on task/taskloop: higher runs earlier at
// task scheduling points (a hint, per the spec).
func Priority(n int) TaskOption { return core.Priority(n) }

// Final is the final clause: a final task runs undeferred and so do all its
// descendants — the standard recursion cutoff.
func Final(cond bool) TaskOption { return core.Final(cond) }

// TaskIf is the if clause on task-generating constructs: false makes the
// task undeferred (the encountering thread suspends until it completes).
func TaskIf(cond bool) TaskOption { return core.TaskIf(cond) }

// NumTasks is the num_tasks clause on taskloop.
func NumTasks(n int) TaskOption { return core.NumTasks(n) }

// NoGroup is the nogroup clause on taskloop.
func NoGroup() TaskOption { return core.NoGroup() }

// Default returns the process-wide runtime (lazily initialised from OMP_*
// environment variables).
func Default() *Runtime { return core.Default() }

// NewRuntime creates an isolated runtime; nil ICVs mean spec defaults.
func NewRuntime(icvs *icv.Set) *Runtime { return core.NewRuntime(icvs) }

// Parallel runs body on a team of the default runtime (`omp parallel`).
func Parallel(body func(t *Thread), opts ...ParOption) { Default().Parallel(body, opts...) }

// ParallelFor is the combined `omp parallel for` on the default runtime.
// opts may mix ParOption and ForOption values; any other type panics with a
// message naming the offending argument.
func ParallelFor(n int, body func(i int, t *Thread), opts ...any) {
	Default().ParallelFor(n, body, opts...)
}

// Critical executes fn under the named critical lock of the default runtime.
func Critical(name string, fn func()) { Default().Critical(name, fn) }

// SetNumThreads sets the default team size (omp_set_num_threads).
func SetNumThreads(n int) { Default().SetNumThreads(n) }

// MaxThreads returns the prospective team size (omp_get_max_threads).
func MaxThreads() int { return Default().MaxThreads() }

// SetDynamicThreads sets dyn-var (omp_set_dynamic; named for the package's
// Dynamic schedule-kind constant): with it set, the thread-budget arbiter
// shrinks oversubscribed team requests immediately instead of waiting.
func SetDynamicThreads(on bool) { Default().SetDynamic(on) }

// DynamicThreads returns dyn-var (omp_get_dynamic).
func DynamicThreads() bool { return Default().Dynamic() }

// SetThreadLimit sets thread-limit-var, the process-wide ceiling concurrent
// regions' threads are charged against (OMP_THREAD_LIMIT).
func SetThreadLimit(n int) { Default().SetThreadLimit(n) }

// ThreadLimit returns thread-limit-var (omp_get_thread_limit).
func ThreadLimit() int { return Default().ThreadLimit() }

// Wtime returns elapsed wall-clock seconds (omp_get_wtime).
func Wtime() float64 { return Default().Wtime() }

// ReduceFor is a worksharing loop with a reduction; see core.ReduceFor.
func ReduceFor[T Number](t *Thread, n int, op Op, body func(i int, acc T) T, opts ...ForOption) T {
	return core.ReduceFor(t, n, op, body, opts...)
}

// ReduceForLoop is ReduceFor over a general canonical loop.
func ReduceForLoop[T Number](t *Thread, loop Loop, op Op, body func(i int64, acc T) T, opts ...ForOption) T {
	return core.ReduceForLoop(t, loop, op, body, opts...)
}

// Reduce combines one value per team member; see core.Reduce.
func Reduce[T Number](t *Thread, op Op, v T) T { return core.Reduce(t, op, v) }

// Combine applies a reduction operator to two values.
func Combine[T Number](op Op, a, b T) T { return core.Combine(op, a, b) }
