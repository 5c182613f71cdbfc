// Command reachroot is the API root of the reachability gate (reach_test.go
// at the module root): one table of the facade's routines and of the
// methods of its aliased types, each beside the OpenMP 5.2 routine,
// construct, clause or ICV it implements. Linking this program keeps every
// entry, and whatever it calls, reached even when no example or workload
// uses it. README.md's "OpenMP API routines" table lists the same entries
// (TestREADMEListsEveryAPIRoutine).
//
//	go run ./testdata/reachroot
//
// prints the table with each entry's linked function name.
package main

import (
	"fmt"
	"reflect"
	"runtime"

	gomp "repro"
)

// api pairs an OpenMP name with the GoMP function or method that implements
// it. Generic entries are instantiated at one element type.
var api = []struct {
	omp string
	fn  any
}{
	// Runtime library routines and ICVs.
	{"omp_set_num_threads", gomp.SetNumThreads},
	{"omp_get_max_threads", gomp.MaxThreads},
	{"omp_get_num_threads", (*gomp.Thread).NumThreads},
	{"omp_get_thread_num", (*gomp.Thread).Num},
	{"omp_in_parallel", (*gomp.Thread).InParallel},
	{"omp_set_dynamic", gomp.SetDynamicThreads},
	{"omp_get_dynamic", gomp.DynamicThreads},
	{"omp_set_schedule", (*gomp.Runtime).SetSchedule},
	{"omp_get_schedule", (*gomp.Runtime).Schedule},
	{"thread-limit-var", gomp.SetThreadLimit},
	{"omp_get_thread_limit", gomp.ThreadLimit},
	{"omp_set_max_active_levels", (*gomp.Runtime).SetMaxActiveLevels},
	{"omp_get_max_active_levels", (*gomp.Runtime).MaxActiveLevels},
	{"omp_get_level", (*gomp.Thread).Level},
	{"omp_get_active_level", (*gomp.Thread).ActiveLevel},
	{"omp_get_team_num", (*gomp.TeamsCtx).TeamNum},
	{"omp_get_num_teams", (*gomp.TeamsCtx).NumTeams},
	{"omp_get_wtime", gomp.Wtime},
	{"omp_get_wtick", (*gomp.Runtime).Wtick},
	{"omp_get_num_devices", gomp.GetNumDevices},
	{"omp_set_default_device", gomp.SetDefaultDevice},
	{"omp_get_default_device", gomp.GetDefaultDevice},

	// Parallelism and worksharing.
	{"parallel", gomp.Parallel},
	{"parallel (nested)", (*gomp.Thread).Parallel},
	{"parallel for", gomp.ParallelFor},
	{"for", (*gomp.Thread).For},
	{"for (canonical loop)", (*gomp.Thread).ForLoop},
	{"for collapse(n)", (*gomp.Thread).ForNest},
	{"for ordered", (*gomp.Thread).ForOrdered},
	{"ordered", (*gomp.OrderedCtx).Do},
	{"for ordered(n)", (*gomp.Thread).ForDoacross},
	{"ordered depend(sink:)", (*gomp.DoacrossCtx).Wait},
	{"ordered depend(source)", (*gomp.DoacrossCtx).Post},
	{"for reduction()", gomp.ReduceFor[float64]},
	{"for reduction() (canonical loop)", gomp.ReduceForLoop[float64]},
	{"sections", (*gomp.Thread).Sections},
	{"single", (*gomp.Thread).Single},
	{"single copyprivate()", (*gomp.Thread).SingleCopy},
	{"masked", (*gomp.Thread).Master},
	{"teams", gomp.Teams},
	{"distribute", (*gomp.TeamsCtx).Distribute},
	{"distribute parallel for", (*gomp.TeamsCtx).DistributeParallelFor},

	// Synchronization and cancellation.
	{"critical", gomp.Critical},
	{"critical (in a region)", (*gomp.Thread).Critical},
	{"barrier", (*gomp.Thread).Barrier},
	{"cancel", (*gomp.Thread).Cancel},
	{"cancellation point", (*gomp.Thread).CancellationPoint},

	// Tasking.
	{"task", (*gomp.Thread).Task},
	{"taskwait", (*gomp.Thread).Taskwait},
	{"taskgroup", (*gomp.Thread).Taskgroup},
	{"taskyield", (*gomp.Thread).Taskyield},
	{"taskloop", (*gomp.Thread).Taskloop},
	{"taskgraph (OpenMP 6.0)", (*gomp.Thread).Taskgraph},
	{"taskgraph graph_reset (OpenMP 6.0)", (*gomp.Taskgraph).Reset},

	// Clauses.
	{"num_threads()", gomp.NumThreads},
	{"if() on parallel", gomp.If},
	{"schedule()", gomp.Schedule},
	{"nowait", gomp.NoWait},
	{"depend(in:)", gomp.DependIn},
	{"depend(out:)", gomp.DependOut},
	{"depend(inout:)", gomp.DependInOut},
	{"priority()", gomp.Priority},
	{"final()", gomp.Final},
	{"if() on task", gomp.TaskIf},
	{"num_tasks()", gomp.NumTasks},
	{"nogroup", gomp.NoGroup},
	{"private, reduction(+:) identity", gomp.Zero[float64]},
	{"reduction(*:) identity", gomp.One[float64]},
	{"reduction(max:) identity", gomp.Smallest[float64]},
	{"reduction(min:) identity", gomp.Largest[float64]},
	{"reduction(&:) identity", gomp.AllOnes[int64]},
	{"reduction() on parallel", gomp.Reduce[float64]},
	{"reduction() combiner", gomp.Combine[float64]},
	{"copyprivate()", gomp.CopyAssign[float64]},
	{"threadprivate", gomp.NewThreadPrivate[float64]},
	{"threadprivate access", (*gomp.ThreadPrivate[float64]).Get},
	{"copyin()", (*gomp.ThreadPrivate[float64]).Copyin},

	// Atomics.
	{"atomic read", (*gomp.AtomicInt64).Load},
	{"atomic write", (*gomp.AtomicInt64).Store},
	{"atomic update x += e", (*gomp.AtomicInt64).Add},
	{"atomic update x -= e", (*gomp.AtomicInt64).Sub},
	{"atomic update x &= e", (*gomp.AtomicInt64).And},
	{"atomic update x |= e", (*gomp.AtomicInt64).Or},
	{"atomic update x ^= e", (*gomp.AtomicInt64).Xor},
	{"atomic compare (min)", (*gomp.AtomicInt64).Min},
	{"atomic compare (max)", (*gomp.AtomicInt64).Max},
	{"atomic compare (x == e ? d : x)", (*gomp.AtomicInt64).CompareAndSwap},
	{"atomic read", (*gomp.AtomicUint64).Load},
	{"atomic write", (*gomp.AtomicUint64).Store},
	{"atomic update x += e", (*gomp.AtomicUint64).Add},
	{"atomic compare (min)", (*gomp.AtomicUint64).Min},
	{"atomic compare (max)", (*gomp.AtomicUint64).Max},
	{"atomic read", (*gomp.AtomicFloat64).Load},
	{"atomic write", (*gomp.AtomicFloat64).Store},
	{"atomic update x += e", (*gomp.AtomicFloat64).Add},
	{"atomic update x *= e", (*gomp.AtomicFloat64).Mul},
	{"atomic compare (min)", (*gomp.AtomicFloat64).Min},
	{"atomic compare (max)", (*gomp.AtomicFloat64).Max},
	{"atomic read", (*gomp.AtomicFloat32).Load},
	{"atomic write", (*gomp.AtomicFloat32).Store},
	{"atomic update x += e", (*gomp.AtomicFloat32).Add},
	{"atomic read", (*gomp.AtomicBool).Load},
	{"atomic write", (*gomp.AtomicBool).Store},
	{"atomic update x = x || e", (*gomp.AtomicBool).Or},
	{"atomic update x = x && e", (*gomp.AtomicBool).And},

	// Device constructs.
	{"target", gomp.Target},
	{"target (closure region)", gomp.TargetRegion},
	{"target nowait", gomp.TargetNowait},
	{"taskwait (target nowait)", gomp.TargetSync},
	{"target data", gomp.TargetData},
	{"target enter data", gomp.TargetEnterData},
	{"target exit data", gomp.TargetExitData},
	{"target update", gomp.TargetUpdate},
	{"target teams distribute parallel for", gomp.TeamsFor},
	{"declare target", gomp.RegisterKernel},
	{"declare mapper", gomp.RegisterMapType},
	{"map(to:)", gomp.MapTo},
	{"map(from:)", gomp.MapFrom},
	{"map(tofrom:)", gomp.MapToFrom},
	{"map(alloc:)", gomp.MapAlloc},
	{"map(release:)", gomp.MapRelease},
	{"map(delete:)", gomp.MapDelete},
}

func main() {
	for _, e := range api {
		name := runtime.FuncForPC(reflect.ValueOf(e.fn).Pointer()).Name()
		fmt.Printf("%-40s %s\n", e.omp, name)
	}
}
