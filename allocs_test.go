// Steady-state allocation regression guards for the fork/join hot path.
//
// The hot-team cache (internal/kmp) makes the fork→for→barrier→join cycle
// allocation-free once a team of the right shape exists: Fork revives the
// cached team with one atomic Swap, workers are released through per-worker
// epoch doors, static loops compute their chunks in the calling thread,
// reductions combine through per-member slots allocated with the team,
// single claims a team counter, the remaining worksharing state lives in a
// pre-allocated ring whose loop schedulers reset in place, and the join is
// the region-end barrier. These tests pin that property with
// testing.AllocsPerRun so a regression (a new per-fork closure, a map
// rebuild, a fresh scheduler, a per-construct accumulator) fails loudly.
// Pinned at 0 allocs/op: same-size Fork, Barrier, default-schedule
// ForChunks, ReduceFor (float64 and int64), ReduceForLoop, bare Reduce,
// Single with and without NoWait, ForOrdered, ForDoacross, and task spawn,
// depend-task spawn, taskloop, a whole 2-thread region of depend-tasks
// spawned on one member and retired on the other, and the replay of a
// recorded task graph whose tasks the other member runs.
//
// AllocsPerRun counts mallocs process-wide, so team members other than the
// measuring goroutine participate in lockstep: AllocsPerRun calls f once as
// a warm-up plus `runs` measured times, hence the runs+1 loops on the
// non-measuring members.
package gomp_test

import (
	"testing"
	"time"

	gomp "repro"
	"repro/internal/icv"
	"repro/internal/kmp"
)

const allocRuns = 200

// warmForkPath brings the pool to steady state: the hot team is built and
// each worker has slept at least once, so per-goroutine runtime timers are
// allocated outside the measurement window.
func warmForkPath(pool *kmp.Pool, micro func(*kmp.Team, int)) {
	for i := 0; i < 8; i++ {
		pool.Fork(nil, kmp.ForkSpec{}, micro)
	}
	time.Sleep(3 * time.Millisecond)
	pool.Fork(nil, kmp.ForkSpec{}, micro)
}

// regionAllocs measures op's steady-state allocations inside a persistent
// region of a fresh two-member runtime: a warm region runs op repeatedly
// (caching ring schedulers, letting workers allocate their sleep timers),
// then member 0 measures while member 1 runs op in lockstep.
func regionAllocs(op func(th *gomp.Thread)) float64 {
	s := icv.Default()
	s.NumThreads = []int{2}
	rt := gomp.NewRuntime(s)
	rt.Parallel(func(th *gomp.Thread) {
		for i := 0; i < 16; i++ {
			op(th)
		}
	})
	time.Sleep(3 * time.Millisecond)
	var avg float64
	rt.Parallel(func(th *gomp.Thread) {
		if th.Num() == 0 {
			avg = testing.AllocsPerRun(allocRuns, func() { op(th) })
		} else {
			for i := 0; i < allocRuns+1; i++ {
				op(th)
			}
		}
	})
	return avg
}

func TestSteadyStateForkAllocFree(t *testing.T) {
	for _, n := range []int{1, 4} {
		s := icv.Default()
		s.NumThreads = []int{n}
		pool := kmp.NewPool(s)
		micro := func(tm *kmp.Team, tid int) {}
		warmForkPath(pool, micro)
		avg := testing.AllocsPerRun(allocRuns, func() {
			pool.Fork(nil, kmp.ForkSpec{}, micro)
		})
		if avg != 0 {
			t.Errorf("steady-state Fork (n=%d, same-size repeat): %v allocs/op, want 0", n, avg)
		}
		pool.Shutdown()
	}
}

func TestSteadyStateStaticForAllocFree(t *testing.T) {
	body := func(lo, hi int) {}
	if avg := regionAllocs(func(th *gomp.Thread) { th.ForChunks(256, body) }); avg != 0 {
		t.Errorf("steady-state static For: %v allocs/op, want 0", avg)
	}
}

func TestSteadyStateBarrierAllocFree(t *testing.T) {
	if avg := regionAllocs(func(th *gomp.Thread) { th.Barrier() }); avg != 0 {
		t.Errorf("steady-state Barrier: %v allocs/op, want 0", avg)
	}
}

// TestSteadyStateReduceAndSingleAllocFree pins the reduction slots and the
// single counter: a reduction used to allocate a fresh accumulator per
// construct (2 allocs, 176 B with a single in the same timestep).
func TestSteadyStateReduceAndSingleAllocFree(t *testing.T) {
	sumF := func(i int, acc float64) float64 { return acc + float64(i) }
	sumI := func(i int, acc int64) int64 { return acc + int64(i) }
	maxL := func(i int64, acc int64) int64 { return max(acc, i) }
	for _, c := range []struct {
		name string
		op   func(th *gomp.Thread)
	}{
		{"ReduceFor float64", func(th *gomp.Thread) { gomp.ReduceFor(th, 256, gomp.OpSum, sumF) }},
		{"ReduceFor int64", func(th *gomp.Thread) { gomp.ReduceFor(th, 256, gomp.OpSum, sumI) }},
		{"ReduceForLoop", func(th *gomp.Thread) {
			gomp.ReduceForLoop(th, gomp.Loop{Begin: 255, End: -1, Step: -1}, gomp.OpMax, maxL)
		}},
		{"Reduce", func(th *gomp.Thread) { gomp.Reduce(th, gomp.OpSum, int64(th.Num())) }},
		{"Single", func(th *gomp.Thread) { th.Single(func() {}) }},
		{"Single NoWait", func(th *gomp.Thread) { th.Single(func() {}, gomp.NoWait()) }},
	} {
		if avg := regionAllocs(c.op); avg != 0 {
			t.Errorf("steady-state %s: %v allocs/op, want 0", c.name, avg)
		}
	}
}

// TestSteadyStateOrderedAllocFree pins the recycled per-thread OrderedCtx:
// an ordered loop used to heap-allocate one ctx per iteration on both the
// parallel and sequential paths.
func TestSteadyStateOrderedAllocFree(t *testing.T) {
	body := func(i int, ord *gomp.OrderedCtx) { ord.Do(func() {}) }
	if avg := regionAllocs(func(th *gomp.Thread) { th.ForOrdered(64, body) }); avg != 0 {
		t.Errorf("steady-state ForOrdered: %v allocs/op, want 0", avg)
	}
}

// TestSteadyStateDoacrossAllocFree pins the recycled doacross machinery:
// the flag vector, linearization tables and ctx live on the worksharing
// ring entry and the Thread, so a steady-state pipelined loop — including
// its variadic sink Waits — allocates nothing.
func TestSteadyStateDoacrossAllocFree(t *testing.T) {
	loops := []gomp.Loop{{Begin: 0, End: 64, Step: 1}}
	body := func(ix []int64, d *gomp.DoacrossCtx) {
		d.Wait(ix[0] - 1)
		d.Post()
	}
	if avg := regionAllocs(func(th *gomp.Thread) { th.ForDoacross(loops, body) }); avg != 0 {
		t.Errorf("steady-state ForDoacross: %v allocs/op, want 0", avg)
	}
}

// Steady-state task spawn/complete allocation guards. The task fast path is
// allocation-free: Units and dephash states come from per-thread free lists
// (internal/task/recycle.go), the body func rides in the Unit's User field,
// depend lists are assembled in a per-Thread scratch buffer, and the
// per-execution Thread contexts are recycled on a per-member stack. These
// guards pin all of that at zero so any regression (a per-spawn closure, a
// re-boxed option, a dephash rebuilt per task) fails loudly. The serial
// team makes the drain deterministic: spawn publishes to the deque,
// taskwait executes.
func TestSteadyStateTaskAllocFree(t *testing.T) {
	s := icv.Default()
	s.NumThreads = []int{1}
	rt := gomp.NewRuntime(s)
	rt.Parallel(func(th *gomp.Thread) {
		for i := 0; i < 16; i++ {
			th.Task(func(*gomp.Thread) {})
		}
		th.Taskwait()
		avg := testing.AllocsPerRun(allocRuns, func() {
			th.Task(func(*gomp.Thread) {})
			th.Taskwait()
		})
		if avg != 0 {
			t.Errorf("steady-state task spawn+complete: %v allocs/op, want 0", avg)
		}
	})
}

func TestSteadyStateTaskDependAllocFree(t *testing.T) {
	s := icv.Default()
	s.NumThreads = []int{1}
	rt := gomp.NewRuntime(s)
	var x int
	rt.Parallel(func(th *gomp.Thread) {
		for i := 0; i < 16; i++ {
			th.Task(func(*gomp.Thread) {}, gomp.DependInOut(&x))
		}
		th.Taskwait()
		avg := testing.AllocsPerRun(allocRuns, func() {
			th.Task(func(*gomp.Thread) {}, gomp.DependInOut(&x))
			th.Taskwait()
		})
		if avg != 0 {
			t.Errorf("steady-state depend task spawn+complete: %v allocs/op, want 0", avg)
		}
	})
}

// TestSteadyStateTaskDependAcrossThreadsAllocFree pins the depend path
// where it crosses threads and regions, as the wavefront does: member 0
// spawns a 16x16 wavefront of depend-tasks and member 1 runs them from the
// region-end barrier, so units are spawned on one thread and retired on
// another (the pool's transfer list carries them back), and every region
// registers in the implicit task's dephash kept from the last region. The
// two token arrays alternate, so each region depends on addresses the
// previous one did not use, without allocating new ones.
func TestSteadyStateTaskDependAcrossThreadsAllocFree(t *testing.T) {
	const nb = 16
	s := icv.Default()
	s.NumThreads = []int{2}
	rt := gomp.NewRuntime(s)
	var toks [2][nb * nb]byte
	var tok *[nb * nb]byte
	body := func(*gomp.Thread) {}
	region := func(th *gomp.Thread) {
		if th.Num() != 0 {
			return // run the tasks from the region-end barrier
		}
		for bi := 0; bi < nb; bi++ {
			for bj := 0; bj < nb; bj++ {
				var opts [3]gomp.TaskOption
				n := 0
				if bi > 0 {
					opts[n] = gomp.DependIn(&tok[(bi-1)*nb+bj])
					n++
				}
				if bj > 0 {
					opts[n] = gomp.DependIn(&tok[bi*nb+bj-1])
					n++
				}
				opts[n] = gomp.DependInOut(&tok[bi*nb+bj])
				th.Task(body, opts[:n+1]...)
			}
		}
	}
	k := 0
	run := func() {
		tok = &toks[k&1]
		k++
		rt.Parallel(region)
	}
	for i := 0; i < 16; i++ {
		run()
	}
	time.Sleep(3 * time.Millisecond)
	run()
	if avg := testing.AllocsPerRun(allocRuns, run); avg != 0 {
		t.Errorf("steady-state 2-thread depend wavefront (%d tasks): %v allocs/region, want 0", nb*nb, avg)
	}
}

// TestSteadyStateTaskgraphReplayAllocFree pins the replay path: member 0
// replays a recorded 16x16 wavefront graph, member 1 runs its tasks from the
// region-end barrier. A replay builds no closures and registers nothing;
// each node gets a recycled unit when its predecessors finish, and the
// replay's charges on the parent, group and pool are made once.
func TestSteadyStateTaskgraphReplayAllocFree(t *testing.T) {
	const nb = 16
	s := icv.Default()
	s.NumThreads = []int{2}
	rt := gomp.NewRuntime(s)
	var tok [nb * nb]byte
	var tg gomp.Taskgraph
	avg := -1.0
	rt.Parallel(func(th *gomp.Thread) {
		if th.Num() != 0 {
			return // run the tasks from the region-end barrier
		}
		body := func(*gomp.Thread) {}
		sweep := func() {
			for bi := 0; bi < nb; bi++ {
				for bj := 0; bj < nb; bj++ {
					var opts [3]gomp.TaskOption
					n := 0
					if bi > 0 {
						opts[n] = gomp.DependIn(&tok[(bi-1)*nb+bj])
						n++
					}
					if bj > 0 {
						opts[n] = gomp.DependIn(&tok[bi*nb+bj-1])
						n++
					}
					opts[n] = gomp.DependInOut(&tok[bi*nb+bj])
					th.Task(body, opts[:n+1]...)
				}
			}
		}
		replay := func() { th.Taskgraph(&tg, sweep) }
		for i := 0; i < 16; i++ {
			replay()
		}
		time.Sleep(3 * time.Millisecond)
		replay()
		avg = testing.AllocsPerRun(allocRuns, replay)
	})
	if avg != 0 {
		t.Errorf("steady-state 2-thread taskgraph replay (%d tasks): %v allocs/replay, want 0", nb*nb, avg)
	}
}

// TestSteadyStateTaskloopAllocFree pins the loop-form chunk path: bounds
// ride in the Unit, the body func is shared across chunks, and the implicit
// taskgroup descriptor is recycled per Thread.
func TestSteadyStateTaskloopAllocFree(t *testing.T) {
	s := icv.Default()
	s.NumThreads = []int{1}
	rt := gomp.NewRuntime(s)
	body := func(i int) {}
	rt.Parallel(func(th *gomp.Thread) {
		for i := 0; i < 16; i++ {
			th.Taskloop(64, 16, body)
		}
		avg := testing.AllocsPerRun(allocRuns, func() {
			th.Taskloop(64, 16, body)
		})
		if avg != 0 {
			t.Errorf("steady-state taskloop (64 iters, grainsize 16): %v allocs/op, want 0", avg)
		}
	})
}
