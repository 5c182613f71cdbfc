// Root benchmarks for the shapes the benchmark in bench/ does not time
// (bench/README.md is the reference for every performance claim):
//
//   - BenchmarkAblation_Schedule_*: schedule choice on the imbalanced
//     Mandelbrot rows.
//   - BenchmarkAblation_ForkJoin_RawGoroutines: the goroutine floor a
//     fork/join is compared against.
//   - BenchmarkInterop_*: the interop registry's call overhead.
//   - BenchmarkAblation_Granularity_*: per-iteration vs chunk-granular
//     worksharing bodies.
//   - BenchmarkOverhead_Taskloop, _Doacross*, _TargetData: constructs with
//     no bench probe.
//   - BenchmarkTasks_Tree: the unbalanced task tree, oracle-checked.
//
// CI runs them at -benchtime=1x as a smoke.
package gomp_test

import (
	"runtime"
	"sync"
	"testing"

	gomp "repro"
	"repro/internal/icv"
	"repro/internal/mandelbrot"
	"repro/internal/npb"
	"repro/internal/taskbench"
)

func benchRuntime(n int) *gomp.Runtime {
	s := icv.Default()
	s.NumThreads = []int{n}
	return gomp.NewRuntime(s)
}

func maxThreads() int { return runtime.GOMAXPROCS(0) }

// --- A2: schedule ablation on the imbalanced Mandelbrot rows ---

func benchSchedule(b *testing.B, s icv.Schedule) {
	rt := benchRuntime(maxThreads())
	spec := mandelbrot.DefaultSpec(512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mandelbrot.OMPSchedule(rt, spec, s)
	}
}

func BenchmarkAblation_Schedule_StaticBlock(b *testing.B) {
	benchSchedule(b, icv.Schedule{Kind: icv.StaticSched})
}
func BenchmarkAblation_Schedule_StaticCyclic1(b *testing.B) {
	benchSchedule(b, icv.Schedule{Kind: icv.StaticSched, Chunk: 1})
}
func BenchmarkAblation_Schedule_Dynamic1(b *testing.B) {
	benchSchedule(b, icv.Schedule{Kind: icv.DynamicSched, Chunk: 1})
}
func BenchmarkAblation_Schedule_Guided(b *testing.B) {
	benchSchedule(b, icv.Schedule{Kind: icv.GuidedSched})
}
func BenchmarkAblation_Schedule_Steal(b *testing.B) {
	benchSchedule(b, icv.Schedule{Kind: icv.StealSched})
}

// BenchmarkAblation_Schedule_CollapsedSteal renders through the flattened
// collapse(2) pixel space fed to the work-stealing scheduler — pixel-granular
// balance without a shared cursor.
func BenchmarkAblation_Schedule_CollapsedSteal(b *testing.B) {
	rt := benchRuntime(maxThreads())
	spec := mandelbrot.DefaultSpec(512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mandelbrot.OMPCollapsed(rt, spec, icv.Schedule{Kind: icv.StealSched})
	}
}

// --- fork-join floor: raw goroutines ---

func BenchmarkAblation_ForkJoin_RawGoroutines(b *testing.B) {
	n := maxThreads()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for t := 0; t < n; t++ {
			wg.Add(1)
			go func() { defer wg.Done() }()
		}
		wg.Wait()
	}
}

// --- E5: interop call overhead ---

func BenchmarkInterop_RegistryCall(b *testing.B) {
	proc, err := npb.FortranObjects.Resolve("norms_")
	if err != nil {
		b.Fatal(err)
	}
	nw := [2]int{64, 1}
	x := make([]float64, 64)
	z := make([]float64, 64)
	var xz, zz float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		proc.MustCall(&nw, x, z, &xz, &zz)
	}
}

func BenchmarkInterop_DirectCall(b *testing.B) {
	// The same computation without the registry/reflection layer, to
	// price the interop path.
	nw := [2]int{64, 1}
	x := make([]float64, 64)
	z := make([]float64, 64)
	var xz, zz float64
	direct := func(nw *[2]int, x, z []float64, xz, zz *float64) {
		a, c := 0.0, 0.0
		for j := 0; j < nw[0]; j++ {
			a += x[j] * z[j]
			c += z[j] * z[j]
		}
		*xz, *zz = a, c
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		direct(&nw, x, z, &xz, &zz)
	}
}

// --- per-iteration vs chunk-granular worksharing (ForChunks rationale) ---

func BenchmarkAblation_Granularity_PerIteration(b *testing.B) {
	rt := benchRuntime(maxThreads())
	data := make([]float64, 1<<18)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Parallel(func(t *gomp.Thread) {
			t.For(len(data), func(j int) { data[j] = float64(j) * 0.5 })
		})
	}
}

func BenchmarkAblation_Granularity_PerChunk(b *testing.B) {
	rt := benchRuntime(maxThreads())
	data := make([]float64, 1<<18)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Parallel(func(t *gomp.Thread) {
			t.ForChunks(len(data), func(lo, hi int) {
				for j := lo; j < hi; j++ {
					data[j] = float64(j) * 0.5
				}
			})
		})
	}
}

// BenchmarkOverhead_Taskloop prices a whole trip-64 grainsize-16 taskloop
// (implicit taskgroup included): the loop-form spawn path where chunk bounds
// ride in the recycled Unit and every chunk shares one func(int) body.
func BenchmarkOverhead_Taskloop(b *testing.B) {
	rt := benchRuntime(maxThreads())
	body := func(i int) {}
	b.ReportAllocs()
	b.ResetTimer()
	rt.Parallel(func(t *gomp.Thread) {
		if t.Num() != 0 {
			return
		}
		for i := 0; i < b.N; i++ {
			t.Taskloop(64, 16, body)
		}
	})
}

// BenchmarkTasks_Tree spawns the unbalanced task tree and checks its node
// count against the serial oracle.
func BenchmarkTasks_Tree(b *testing.B) {
	rt := benchRuntime(maxThreads())
	want := taskbench.TreeSerial(32, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := taskbench.Tree(rt, 32, 12, 5); got != want {
			b.Fatalf("tree(32,12) = %d, want %d", got, want)
		}
	}
}

// BenchmarkOverhead_Doacross prices the doacross flag protocol at its worst
// case: a fully serialised trip-1024 chain (every iteration sinks on its
// predecessor), one whole loop per op — sink linearization + flag wait +
// post per iteration, plus the per-construct flag-vector reset.
func BenchmarkOverhead_Doacross(b *testing.B) {
	rt := benchRuntime(maxThreads())
	loops := []gomp.Loop{{Begin: 0, End: 1024, Step: 1}}
	body := func(ix []int64, d *gomp.DoacrossCtx) {
		d.Wait(ix[0] - 1)
		d.Post()
	}
	b.ReportAllocs()
	b.ResetTimer()
	rt.Parallel(func(t *gomp.Thread) {
		for i := 0; i < b.N; i++ {
			t.ForDoacross(loops, body)
		}
	})
}

// BenchmarkOverhead_DoacrossPost prices the sink-free floor of the same
// loop: flag-vector reset plus one post per iteration, no waits — the
// doacross tax on iterations that only produce.
func BenchmarkOverhead_DoacrossPost(b *testing.B) {
	rt := benchRuntime(maxThreads())
	loops := []gomp.Loop{{Begin: 0, End: 1024, Step: 1}}
	body := func(ix []int64, d *gomp.DoacrossCtx) { d.Post() }
	b.ReportAllocs()
	b.ResetTimer()
	rt.Parallel(func(t *gomp.Thread) {
		for i := 0; i < b.N; i++ {
			t.ForDoacross(loops, body)
		}
	})
}

// BenchmarkOverhead_TargetData prices an empty structured device data
// environment on the host: enter + exit of one map(tofrom:) item, no
// kernel.
func BenchmarkOverhead_TargetData(b *testing.B) {
	x := make([]float64, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := gomp.TargetData(0, nil, gomp.MapToFrom("x", x)); err != nil {
			b.Fatal(err)
		}
	}
}
