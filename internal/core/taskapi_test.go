package core

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/task"
)

func TestTaskRunsByRegionEnd(t *testing.T) {
	rt := testRuntime(4)
	var ran atomic.Int64
	rt.Parallel(func(th *Thread) {
		if th.Num() == 0 {
			for i := 0; i < 100; i++ {
				th.Task(func(*Thread) { ran.Add(1) })
			}
		}
	})
	if ran.Load() != 100 {
		t.Errorf("tasks ran %d, want 100 (implicit barrier must drain)", ran.Load())
	}
}

func TestTaskwaitWaitsChildren(t *testing.T) {
	rt := testRuntime(4)
	var violations atomic.Int64
	rt.Parallel(func(th *Thread) {
		if th.Num() != 0 {
			return
		}
		var childSum atomic.Int64
		for i := 0; i < 20; i++ {
			th.Task(func(*Thread) { childSum.Add(1) })
		}
		th.Taskwait()
		if childSum.Load() != 20 {
			violations.Add(1)
		}
	})
	if violations.Load() != 0 {
		t.Error("taskwait returned before children completed")
	}
}

func TestTaskwaitDirectChildrenOnly(t *testing.T) {
	rt := testRuntime(2)
	var grandchildRan atomic.Bool
	var childRan atomic.Bool
	var childDoneAtWait atomic.Bool
	rt.Parallel(func(th *Thread) {
		if th.Num() != 0 {
			return
		}
		th.Task(func(tt *Thread) {
			tt.Task(func(*Thread) { grandchildRan.Store(true) })
			childRan.Store(true)
		})
		th.Taskwait()
		childDoneAtWait.Store(childRan.Load())
	})
	if !childDoneAtWait.Load() {
		t.Error("direct child not complete at taskwait")
	}
	if !grandchildRan.Load() {
		t.Error("grandchild never ran by region end")
	}
}

func TestTaskgroupWaitsDescendants(t *testing.T) {
	rt := testRuntime(4)
	var leaves atomic.Int64
	var atGroupEnd int64 = -1
	rt.Parallel(func(th *Thread) {
		if th.Num() != 0 {
			return
		}
		th.Taskgroup(func() {
			for i := 0; i < 5; i++ {
				th.Task(func(tt *Thread) {
					for j := 0; j < 4; j++ {
						tt.Task(func(*Thread) { leaves.Add(1) })
					}
				})
			}
		})
		atGroupEnd = leaves.Load()
	})
	if atGroupEnd != 20 {
		t.Errorf("taskgroup end saw %d leaves, want 20", atGroupEnd)
	}
}

func TestTaskExecutorContextValid(t *testing.T) {
	rt := testRuntime(4)
	var bad atomic.Int64
	rt.Parallel(func(th *Thread) {
		if th.Num() == 0 {
			for i := 0; i < 50; i++ {
				th.Task(func(tt *Thread) {
					if tt.Num() < 0 || tt.Num() >= tt.NumThreads() || tt.NumThreads() != 4 {
						bad.Add(1)
					}
				})
			}
		}
	})
	if bad.Load() != 0 {
		t.Errorf("%d tasks had broken executor context", bad.Load())
	}
}

func TestTaskSequentialUndeferred(t *testing.T) {
	rt := testRuntime(4)
	ran := false
	rt.sequentialThread().Task(func(*Thread) { ran = true })
	if !ran {
		t.Error("sequential task must execute immediately")
	}
	rt.sequentialThread().Taskwait() // no-op, must not hang
	rt.sequentialThread().Taskgroup(func() {})
	rt.sequentialThread().Taskyield()
}

func TestTaskloopCoversAllIterations(t *testing.T) {
	rt := testRuntime(4)
	const n = 500
	hits := make([]atomic.Int32, n)
	var doneAtReturn atomic.Int64
	rt.Parallel(func(th *Thread) {
		th.Single(func() {
			th.Taskloop(n, 16, func(i int) { hits[i].Add(1) })
			var sum int64
			for i := range hits {
				sum += int64(hits[i].Load())
			}
			doneAtReturn.Store(sum)
		})
	})
	for i := range hits {
		if hits[i].Load() != 1 {
			t.Fatalf("iteration %d ran %d times", i, hits[i].Load())
		}
	}
	if doneAtReturn.Load() != n {
		t.Errorf("taskloop returned before completion: %d/%d", doneAtReturn.Load(), n)
	}
}

func TestTaskloopDefaultGrain(t *testing.T) {
	rt := testRuntime(4)
	var count atomic.Int64
	rt.Parallel(func(th *Thread) {
		th.Single(func() {
			th.Taskloop(100, 0, func(i int) { count.Add(1) })
		})
	})
	if count.Load() != 100 {
		t.Errorf("ran %d iterations", count.Load())
	}
	// Sequential and empty cases.
	rt.sequentialThread().Taskloop(3, 0, func(i int) { count.Add(1) })
	if count.Load() != 103 {
		t.Errorf("sequential taskloop broken: %d", count.Load())
	}
	rt.sequentialThread().Taskloop(0, 5, func(int) { t.Error("zero-trip taskloop ran") })
}

func TestTaskFibonacci(t *testing.T) {
	// The classic tasking smoke test: naive task-recursive Fibonacci.
	rt := testRuntime(4)
	var fib func(tt *Thread, n int) int64
	fib = func(tt *Thread, n int) int64 {
		if n < 2 {
			return int64(n)
		}
		var a, b int64
		tt.Taskgroup(func() {
			tt.Task(func(ct *Thread) { a = fib(ct, n-1) })
			tt.Task(func(ct *Thread) { b = fib(ct, n-2) })
		})
		return a + b
	}
	var got int64
	rt.Parallel(func(th *Thread) {
		th.Single(func() { got = fib(th, 15) })
	})
	if got != 610 {
		t.Errorf("fib(15) = %d, want 610", got)
	}
}

func TestTaskDependOrdersSiblings(t *testing.T) {
	rt := testRuntime(4)
	var x int
	var order []int
	var mu sync.Mutex
	rt.Parallel(func(th *Thread) {
		if th.Num() != 0 {
			return
		}
		for k := 0; k < 16; k++ {
			k := k
			th.Task(func(*Thread) {
				mu.Lock()
				order = append(order, k)
				mu.Unlock()
			}, DependInOut(&x))
		}
	})
	if len(order) != 16 {
		t.Fatalf("ran %d tasks", len(order))
	}
	for k, got := range order {
		if got != k {
			t.Fatalf("inout chain out of order: %v", order)
		}
	}
}

func TestTaskDependInOutSemantics(t *testing.T) {
	// writer -> readers -> writer over a shared accumulator, checked by
	// value: racing would lose updates or read torn state.
	rt := testRuntime(4)
	data := make([]int, 64)
	var readsOK atomic.Int64
	rt.Parallel(func(th *Thread) {
		if th.Num() != 0 {
			return
		}
		th.Task(func(*Thread) {
			for i := range data {
				data[i] = 1
			}
		}, DependOut(&data))
		for r := 0; r < 6; r++ {
			th.Task(func(*Thread) {
				sum := 0
				for _, v := range data {
					sum += v
				}
				if sum == len(data) {
					readsOK.Add(1)
				}
			}, DependIn(&data))
		}
		th.Task(func(*Thread) {
			for i := range data {
				data[i] = 2
			}
		}, DependOut(&data))
		th.Taskwait()
		sum := 0
		for _, v := range data {
			sum += v
		}
		if sum != 2*len(data) {
			t.Errorf("final state %d, want %d", sum, 2*len(data))
		}
	})
	if readsOK.Load() != 6 {
		t.Errorf("%d readers saw the first writer's state, want 6", readsOK.Load())
	}
}

func TestTaskFinalRunsInlineAndPropagates(t *testing.T) {
	rt := testRuntime(4)
	rt.Parallel(func(th *Thread) {
		if th.Num() != 0 {
			return
		}
		outer := th.GlobalID()
		var depth2GID int
		done := false
		th.Task(func(tt *Thread) {
			// Final: included, so it runs on the spawning thread.
			if tt.GlobalID() != outer {
				t.Errorf("final task ran on gtid %d, want %d", tt.GlobalID(), outer)
			}
			// A descendant of a final task is final too (undeferred).
			tt.Task(func(ttt *Thread) {
				depth2GID = ttt.GlobalID()
				done = true
			})
		}, Final(true))
		// Undeferred: both levels completed before Task returned.
		if !done {
			t.Error("final task tree not complete at spawn return")
		}
		if depth2GID != outer {
			t.Errorf("descendant of final task ran on gtid %d, want %d", depth2GID, outer)
		}
	})
}

func TestTaskIfFalseUndeferred(t *testing.T) {
	rt := testRuntime(4)
	rt.Parallel(func(th *Thread) {
		if th.Num() != 0 {
			return
		}
		ran := false
		th.Task(func(*Thread) { ran = true }, TaskIf(false))
		if !ran {
			t.Error("if(false) task not complete when Task returned")
		}
	})
}

func TestTaskIfFalseWithDepsWaitsForPredecessors(t *testing.T) {
	rt := testRuntime(4)
	var x int
	rt.Parallel(func(th *Thread) {
		if th.Num() != 0 {
			return
		}
		predDone := false
		th.Task(func(*Thread) { predDone = true }, DependOut(&x))
		sawPred := false
		th.Task(func(*Thread) { sawPred = predDone }, DependIn(&x), TaskIf(false))
		if !sawPred {
			t.Error("undeferred dependent task ran before its predecessor")
		}
	})
}

func TestTaskPriorityHint(t *testing.T) {
	// Single thread spawns all tasks then hits taskwait: priority tasks
	// must be taken before deque ones.
	rt := testRuntime(1)
	rt.Parallel(func(th *Thread) {
		var order []int
		for k := 0; k < 3; k++ {
			k := k
			th.Task(func(*Thread) { order = append(order, k) })
		}
		th.Task(func(*Thread) { order = append(order, 100) }, Priority(2))
		th.Taskwait()
		if len(order) != 4 || order[0] != 100 {
			t.Errorf("priority task not first: %v", order)
		}
	})
}

func TestTaskloopNumTasks(t *testing.T) {
	rt := testRuntime(4)
	var covered [100]atomic.Int32
	rt.Parallel(func(th *Thread) {
		if th.Num() != 0 {
			return
		}
		th.Taskloop(100, 0, func(i int) {
			covered[i].Add(1)
		}, NumTasks(7))
	})
	for i := range covered {
		if covered[i].Load() != 1 {
			t.Fatalf("iteration %d ran %d times", i, covered[i].Load())
		}
	}
}

func TestTaskloopNoGroupSettlesAtTaskwait(t *testing.T) {
	rt := testRuntime(4)
	rt.Parallel(func(th *Thread) {
		if th.Num() != 0 {
			return
		}
		var ran atomic.Int64
		th.Taskloop(64, 4, func(i int) { ran.Add(1) }, NoGroup())
		// nogroup: no implicit wait; a taskwait adopts the chunks (they are
		// children of the current task).
		th.Taskwait()
		if ran.Load() != 64 {
			t.Errorf("after taskwait %d iterations ran, want 64", ran.Load())
		}
	})
}

func TestTaskloopGrainsizeBeatsNumTasks(t *testing.T) {
	rt := testRuntime(2)
	rt.Parallel(func(th *Thread) {
		if th.Num() != 0 {
			return
		}
		var ran atomic.Int64
		th.Taskloop(30, 10, func(i int) { ran.Add(1) }, NumTasks(30))
		if ran.Load() != 30 {
			t.Errorf("ran %d iterations, want 30", ran.Load())
		}
	})
}

func TestDepAddrKinds(t *testing.T) {
	var x int
	s := []int{1, 2}
	m := map[int]int{}
	if depAddr(&x) == 0 || depAddr(s) == 0 || depAddr(m) == 0 {
		t.Error("pointer-like values must produce non-zero addresses")
	}
	defer func() {
		if recover() == nil {
			t.Error("non-pointer depend address must panic")
		}
	}()
	depAddr(42)
}

func TestSequentialTaskOptionsDegenerate(t *testing.T) {
	// Outside a parallel region every task form is undeferred inline.
	rt := testRuntime(1)
	th := rt.sequentialThread()
	ran := 0
	var x int
	th.Task(func(*Thread) { ran++ }, DependInOut(&x), Priority(3), Final(true))
	th.Taskloop(10, 3, func(i int) { ran++ }, NumTasks(2), NoGroup())
	if ran != 11 {
		t.Errorf("sequential forms ran %d bodies, want 11", ran)
	}
}

// inoutChains spawns, from member 0, steps rounds of one task per element
// of a: task (k, i) reads a[i-1] and updates a[i] with an order-sensitive
// step, so a dependence the runtime misses shows up as a different value.
// chainSerial is the same program without tasks.
func inoutChains(th *Thread, a []int64, steps int) {
	for k := 0; k < steps; k++ {
		for i := range a {
			k, i := k, i
			opts := []TaskOption{DependInOut(&a[i])}
			if i > 0 {
				opts = append(opts, DependIn(&a[i-1]))
			}
			th.Task(func(*Thread) { chainStep(a, k, i) }, opts...)
		}
	}
}

func chainStep(a []int64, k, i int) {
	prev := int64(1)
	if i > 0 {
		prev = a[i-1]
	}
	a[i] = a[i]*31 + prev*7 + int64(k)
}

func chainSerial(a []int64, steps int) {
	for k := 0; k < steps; k++ {
		for i := range a {
			chainStep(a, k, i)
		}
	}
}

// TestRootReusedAcrossRegions pins the implicit task's sentinel across
// regions: consecutive regions of a 2-thread team register inout chains in
// the same root's dephash, first over one array again and again, then over
// a freshly allocated one, and every result matches the serial order.
func TestRootReusedAcrossRegions(t *testing.T) {
	rt := testRuntime(2)
	const n, steps = 48, 6
	a := make([]int64, n)
	want := make([]int64, n)
	var roots []*task.Unit
	region := func(a []int64) {
		rt.Parallel(func(th *Thread) {
			if th.Num() == 0 {
				inoutChains(th, a, steps)
				roots = append(roots, th.rootTask)
			}
		})
	}
	for r := 0; r < 4; r++ {
		region(a)
		chainSerial(want, steps)
		if !slices.Equal(a, want) {
			t.Fatalf("region %d over the same array: got %v, want %v", r, a, want)
		}
	}
	for r := 0; r < 4; r++ {
		a = make([]int64, n)
		region(a)
		want = make([]int64, n)
		chainSerial(want, steps)
		if !slices.Equal(a, want) {
			t.Fatalf("region %d over a fresh array: got %v, want %v", r, a, want)
		}
	}
	for r, root := range roots {
		if root != roots[0] {
			t.Fatalf("region %d made a new implicit-task root; want the first region's kept", r)
		}
	}
}

// TestRootWithLiveChildrenReplaced: a root that still has a live child when
// the next region starts (here a child queued between regions, the state a
// task that never finished leaves behind) is not reused; the region gets a
// fresh root and the stale child still runs at that region's barrier.
func TestRootWithLiveChildrenReplaced(t *testing.T) {
	rt := testRuntime(2)
	var th0 *Thread
	var x int64
	rt.Parallel(func(th *Thread) {
		if th.Num() == 0 {
			th0 = th
			th.Task(func(*Thread) { x++ }, DependInOut(&x))
		}
	})
	old := th0.rootTask
	var stale atomic.Bool
	th0.team.Tasks().Spawn(0, old, nil, func(*task.Unit) { stale.Store(true) })
	rt.Parallel(func(th *Thread) {
		if th.Num() == 0 {
			if th.rootTask == old {
				t.Error("root with a live child was reused")
			}
			th.Task(func(*Thread) { x++ }, DependInOut(&x))
			th.Taskwait()
		}
	})
	if !stale.Load() {
		t.Error("the stale child did not run at the region's barrier")
	}
	if x != 2 {
		t.Errorf("x = %d, want 2", x)
	}
	fresh := th0.rootTask
	rt.Parallel(func(th *Thread) {
		if th.Num() == 0 && th.rootTask != fresh {
			t.Error("idle root of the last region was not reused")
		}
	})
}
