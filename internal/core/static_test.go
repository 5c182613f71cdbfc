package core

import (
	"math"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/icv"
	"repro/internal/reduction"
	"repro/internal/sched"
)

// Conformance of the static worksharing path: static loops compute their
// chunks in the calling thread, reductions combine through the team's
// two-parity slots, and single claims the team's counter. Run under -race.

// staticSchedules are the schedules the static path serves; the runtime
// entry resolves against a run-sched of static,3 (staticRuntime).
var staticSchedules = []icv.Schedule{
	{Kind: icv.StaticSched},
	{Kind: icv.StaticSched, Chunk: 1},
	{Kind: icv.StaticSched, Chunk: 7},
	{Kind: icv.AutoSched},
	{Kind: icv.RuntimeSched},
}

func staticRuntime() *Runtime {
	s := icv.Default()
	s.RunSched = icv.Schedule{Kind: icv.StaticSched, Chunk: 3}
	return NewRuntime(s)
}

// schedOwners returns, per logical iteration, the thread that sched.New's
// scheduler for desc hands it on a team of n: the reference the static
// path's chunk arithmetic must reproduce.
func schedOwners(rt *Runtime, desc icv.Schedule, trip int64, n int) []int32 {
	owners := make([]int32, trip)
	s := sched.New(sched.Resolve(desc, rt.ICVs()), trip, n)
	for tid := 0; tid < n; tid++ {
		for c, ok := s.Next(tid); ok; c, ok = s.Next(tid) {
			for k := c.Begin; k < c.End; k++ {
				owners[k] = int32(tid)
			}
		}
	}
	return owners
}

// staticEntry runs one loop entry point over trip logical iterations,
// calling hit(tid, k) once per executed logical iteration k, and returns
// the reduction result (the sum of k), 0 for the non-reducing entries.
type staticEntry struct {
	name string
	run  func(th *Thread, trip int64, opts []ForOption, hit func(tid int, k int64)) int64
}

var staticEntries = []staticEntry{
	{"For", func(th *Thread, trip int64, opts []ForOption, hit func(int, int64)) int64 {
		th.For(int(trip), func(i int) { hit(th.Num(), int64(i)) }, opts...)
		return 0
	}},
	{"ForLoop", func(th *Thread, trip int64, opts []ForOption, hit func(int, int64)) int64 {
		loop := sched.Loop{Begin: 7, End: 7 - 3*trip, Step: -3}
		th.ForLoop(loop, func(i int64) { hit(th.Num(), (7-i)/3) }, opts...)
		return 0
	}},
	{"ForNest", func(th *Thread, trip int64, opts []ForOption, hit func(int, int64)) int64 {
		// trip outer iterations stepping by 2 over one inner iteration
		// stepping by -5: the flattened space has trip iterations.
		loops := []sched.Loop{{Begin: -4, End: -4 + 2*trip, Step: 2}, {Begin: 9, End: 8, Step: -5}}
		th.ForNest(loops, func(ix []int64) {
			if ix[1] != 9 {
				panic("inner loop variable out of range")
			}
			hit(th.Num(), (ix[0]+4)/2)
		}, opts...)
		return 0
	}},
	{"ForChunks", func(th *Thread, trip int64, opts []ForOption, hit func(int, int64)) int64 {
		th.ForChunks(int(trip), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				hit(th.Num(), int64(i))
			}
		}, opts...)
		return 0
	}},
	{"ReduceFor", func(th *Thread, trip int64, opts []ForOption, hit func(int, int64)) int64 {
		return ReduceFor(th, int(trip), reduction.Sum, func(i int, acc int64) int64 {
			hit(th.Num(), int64(i))
			return acc + int64(i)
		}, opts...)
	}},
	{"ReduceForLoop", func(th *Thread, trip int64, opts []ForOption, hit func(int, int64)) int64 {
		loop := sched.Loop{Begin: -1, End: -1 + 4*trip, Step: 4}
		return ReduceForLoop(th, loop, reduction.Sum, func(i int64, acc int64) int64 {
			k := (i + 1) / 4
			hit(th.Num(), k)
			return acc + k
		}, opts...)
	}},
}

// TestStaticLoopsMatchSchedulerAssignment: every static entry point runs
// every iteration exactly once, on the thread sched.New's static scheduler
// assigns it — the spec's guarantee that the same trip count and team size
// give every thread the same iterations — for team sizes 1..8 and trip
// counts around the team size.
func TestStaticLoopsMatchSchedulerAssignment(t *testing.T) {
	rt := staticRuntime()
	for n := 1; n <= 8; n++ {
		for _, trip := range []int64{0, 1, int64(n - 1), int64(n), int64(n + 1), 1000} {
			for _, desc := range staticSchedules {
				want := schedOwners(rt, desc, trip, n)
				opts := []ForOption{Schedule(desc.Kind, desc.Chunk)}
				for _, e := range staticEntries {
					runs := make([]atomic.Int32, trip)
					who := make([]atomic.Int32, trip)
					var results [8]int64
					rt.Parallel(func(th *Thread) {
						results[th.Num()] = e.run(th, trip, opts, func(tid int, k int64) {
							runs[k].Add(1)
							who[k].Store(int32(tid))
						})
					}, NumThreads(n))
					for k := range runs {
						if r := runs[k].Load(); r != 1 {
							t.Fatalf("%s %v n=%d trip=%d: iteration %d ran %d times", e.name, desc, n, trip, k, r)
						}
						if w := who[k].Load(); w != want[k] {
							t.Fatalf("%s %v n=%d trip=%d: iteration %d ran on thread %d, sched assigns %d", e.name, desc, n, trip, k, w, want[k])
						}
					}
					if e.name == "ReduceFor" || e.name == "ReduceForLoop" {
						for tid := 0; tid < n; tid++ {
							if want := trip * (trip - 1) / 2; results[tid] != want {
								t.Fatalf("%s %v n=%d trip=%d: thread %d got %d, want %d", e.name, desc, n, trip, tid, results[tid], want)
							}
						}
					}
				}
			}
		}
	}
}

// TestBackToBackReductionsMixedTypes runs reductions of different types and
// operators back to back — bare Reduce after Reduce with no barrier in
// between, static ReduceFor, dynamic (ring-scheduled) ReduceFor — with
// nowait static loops and dynamic loops between them, so consecutive
// reductions reuse the team's slots through both parities and interleave
// with the worksharing ring.
func TestBackToBackReductionsMixedTypes(t *testing.T) {
	rt := testRuntime(1)
	for _, n := range []int{1, 2, 3, 5, 8} {
		var bad atomic.Int64
		check := func(ok bool) {
			if !ok {
				bad.Add(1)
			}
		}
		rt.Parallel(func(th *Thread) {
			tid := th.Num()
			for r := 0; r < 40; r++ {
				a := ReduceFor(th, 1000, reduction.Sum, func(i int, acc int64) int64 { return acc + int64(i+r) })
				check(a == 999*1000/2+1000*int64(r))
				th.For(50, func(int) {}, NoWait())
				b := ReduceFor(th, 777, reduction.Max, func(i int, acc float64) float64 {
					return math.Max(acc, float64((i*31+r)%777))
				}, Schedule(icv.StaticSched, 7))
				check(b == 776)
				c := Reduce(th, reduction.BitXor, uint32(1)<<tid)
				d := Reduce(th, reduction.Min, int8(tid-r%3))
				check(c == uint32(1)<<n-1 && d == int8(-(r%3)))
				th.For(64, func(int) {}, Schedule(icv.DynamicSched, 3), NoWait())
				e := ReduceFor(th, 300, reduction.Sum, func(i int, acc float32) float32 { return acc + 0.5 },
					Schedule(icv.DynamicSched, 4))
				check(e == 150)
				f := ReduceForLoop(th, sched.Loop{Begin: 9, End: 0, Step: -1}, reduction.Prod, func(i int64, acc uint8) uint8 {
					return acc * uint8(1+i%2)
				}, Schedule(icv.GuidedSched, 0))
				check(f == 32) // 2^5 from the odd i in 9..1
				var mine int16
				if tid == r%n {
					mine = 1
				}
				g := Reduce(th, reduction.LogOr, mine)
				check(g == 1)
			}
		}, NumThreads(n))
		if bad.Load() != 0 {
			t.Errorf("team of %d: %d wrong reduction results", n, bad.Load())
		}
	}
}

// TestNoWaitSinglesOneWinnerEach: 1000 consecutive nowait singles each
// run on exactly one thread, across team reuse and team-size changes, with
// copyprivate singles (which share the team counter) among them still
// broadcasting their winner's value.
func TestNoWaitSinglesOneWinnerEach(t *testing.T) {
	rt := testRuntime(1)
	const singles = 1000
	for _, n := range []int{3, 3, 5, 1, 8, 8, 5} {
		var ran, won [singles]atomic.Int32
		var badCopy atomic.Int64
		rt.Parallel(func(th *Thread) {
			for i := 0; i < singles; i++ {
				if th.Single(func() { ran[i].Add(1) }, NoWait()) {
					won[i].Add(1)
				}
				if i%100 == 99 {
					if v := th.SingleCopy(func() any { return i }); v != i {
						badCopy.Add(1)
					}
				}
			}
		}, NumThreads(n))
		for i := range ran {
			if ran[i].Load() != 1 || won[i].Load() != 1 {
				t.Fatalf("team of %d: single %d ran %d times, %d winners", n, i, ran[i].Load(), won[i].Load())
			}
		}
		if badCopy.Load() != 0 {
			t.Errorf("team of %d: %d copyprivate values not broadcast", n, badCopy.Load())
		}
	}
}

// TestCancelStopsStaticLoopAtNextChunk: a cancel inside a static chunked
// loop stops every other thread at its next chunk boundary. Thread 0
// cancels once every thread is inside its first iteration, and each thread
// holds that iteration until the cancel is visible, so each runs exactly its
// first chunk and nothing more.
func TestCancelStopsStaticLoopAtNextChunk(t *testing.T) {
	const n = 4
	rt := testRuntime(n)
	for _, chunk := range []int{1, 7} {
		for _, reduce := range []bool{false, true} {
			var ran, arrived atomic.Int64
			var sum int64
			rt.Parallel(func(th *Thread) {
				first := true
				body := func() {
					ran.Add(1)
					if !first {
						return
					}
					first = false
					arrived.Add(1)
					if th.Num() == 0 {
						for arrived.Load() < int64(th.NumThreads()) {
							runtime.Gosched()
						}
						th.Cancel()
					}
					for !th.CancellationPoint() {
						runtime.Gosched()
					}
				}
				opt := Schedule(icv.StaticSched, chunk)
				if !reduce {
					th.For(10000, func(int) { body() }, opt)
					return
				}
				s := ReduceFor(th, 10000, reduction.Sum, func(_ int, acc int64) int64 { body(); return acc + 1 }, opt)
				th.Master(func() { sum = s })
			})
			if got, want := ran.Load(), int64(n*chunk); got != want {
				t.Errorf("chunk %d reduce=%v: %d iterations ran, want %d (one chunk per thread)", chunk, reduce, got, want)
			}
			if reduce && sum != int64(n*chunk) {
				t.Errorf("chunk %d: cancelled reduction = %d, want %d", chunk, sum, n*chunk)
			}
		}
	}
}
