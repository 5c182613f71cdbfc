package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// taskLog records the order in which named tasks ran.
type taskLog struct {
	mu    sync.Mutex
	names []string
}

func (l *taskLog) add(name string) {
	l.mu.Lock()
	l.names = append(l.names, name)
	l.mu.Unlock()
}

// check reports whether every task ran exactly once and each pair in
// before ran in that order; it empties the log.
func (l *taskLog) check(tasks string, before [][2]string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	names := l.names
	l.names = nil
	if len(names) != len(tasks) {
		return fmt.Errorf("ran %v, want each of %q once", names, tasks)
	}
	for _, c := range tasks {
		if !slices.Contains(names, string(c)) {
			return fmt.Errorf("ran %v, want each of %q once", names, tasks)
		}
	}
	for _, b := range before {
		if slices.Index(names, b[0]) > slices.Index(names, b[1]) {
			return fmt.Errorf("ran %v: %s must run before %s", names, b[0], b[1])
		}
	}
	return nil
}

// diamond spawns six tasks: a writes x, b and c read it, d rewrites it
// after both, e writes y, and f reads x and y.
func diamond(th *Thread, log *taskLog, x, y *int) {
	task := func(name string, opts ...TaskOption) {
		th.Task(func(*Thread) { log.add(name) }, opts...)
	}
	task("a", DependOut(x))
	task("b", DependIn(x))
	task("c", DependIn(x))
	task("d", DependInOut(x))
	task("e", DependOut(y))
	task("f", DependIn(x, y))
}

var diamondOrder = [][2]string{{"a", "b"}, {"a", "c"}, {"b", "d"}, {"c", "d"}, {"d", "f"}, {"e", "f"}}

// TestTaskgraphReplaysWithoutBody: the first encounter runs the body and
// records it; every later one runs the same tasks in dependence order
// without calling the body, and each encounter returns with its tasks done.
func TestTaskgraphReplaysWithoutBody(t *testing.T) {
	for _, n := range []int{1, 2, 4} {
		rt := testRuntime(n)
		var tg Taskgraph
		var log taskLog
		var x, y int
		bodies := 0
		rt.Parallel(func(th *Thread) {
			if th.Num() != 0 {
				return
			}
			for k := 0; k < 5; k++ {
				th.Taskgraph(&tg, func() {
					bodies++
					diamond(th, &log, &x, &y)
				})
				if err := log.check("abcdef", diamondOrder); err != nil {
					t.Errorf("team of %d, encounter %d: %v", n, k, err)
				}
			}
		})
		if bodies != 1 || !tg.g.Recorded() {
			t.Errorf("team of %d: body ran %d times, recorded %v; want once, recorded", n, bodies, tg.g.Recorded())
		}
	}
}

// TestTaskgraphUnrecordable: each body a replay cannot reproduce leaves the
// graph unrecordable, so the next encounter runs the body again. A sibling
// from outside the graph that has finished does not stop the record.
func TestTaskgraphUnrecordable(t *testing.T) {
	noop := func(*Thread) {}
	cases := []struct {
		name       string
		pre        func(th *Thread, x *int) // runs before each encounter
		body       func(th *Thread, x *int)
		recordable bool
	}{
		{name: "final", body: func(th *Thread, _ *int) { th.Task(noop, Final(true)) }},
		{name: "if false", body: func(th *Thread, _ *int) { th.Task(noop, TaskIf(false)) }},
		{name: "taskwait", body: func(th *Thread, _ *int) { th.Task(noop); th.Taskwait() }},
		{name: "taskgroup", body: func(th *Thread, _ *int) { th.Taskgroup(func() { th.Task(noop) }) }},
		{name: "taskloop", body: func(th *Thread, _ *int) { th.Taskloop(4, 1, func(int) {}) }},
		{name: "taskyield", body: func(th *Thread, _ *int) { th.Task(noop); th.Taskyield() }},
		{name: "barrier", body: func(th *Thread, _ *int) { th.Barrier() }},
		{name: "nested taskgraph", body: func(th *Thread, _ *int) {
			var inner Taskgraph
			th.Taskgraph(&inner, func() { th.Task(noop) })
		}},
		{name: "panic", body: func(th *Thread, _ *int) { th.Task(noop); panic("body") }},
		{
			name: "live outside sibling",
			pre:  func(th *Thread, x *int) { th.Task(noop, DependOut(x)) }, // queued, not yet run
			body: func(th *Thread, x *int) { th.Task(noop, DependIn(x)) },
		},
		{
			name:       "finished outside sibling",
			pre:        func(th *Thread, x *int) { th.Task(noop, DependOut(x)); th.Taskwait() },
			body:       func(th *Thread, x *int) { th.Task(noop, DependIn(x)) },
			recordable: true,
		},
	}
	for _, c := range cases {
		rt := testRuntime(1)
		var tg Taskgraph
		var x int
		bodies := 0
		for k := 0; k < 3; k++ {
			func() {
				defer func() { _ = recover() }() // the panic case's body
				rt.Parallel(func(th *Thread) {
					if c.pre != nil {
						c.pre(th, &x)
					}
					th.Taskgraph(&tg, func() {
						bodies++
						c.body(th, &x)
					})
				})
			}()
		}
		want := 3
		if c.recordable {
			want = 1
		}
		if bodies != want || tg.g.Unrecordable() == c.recordable {
			t.Errorf("%s: body ran %d times in 3 encounters, unrecordable %v; want %d, %v",
				c.name, bodies, tg.g.Unrecordable(), want, !c.recordable)
		}
	}
}

// TestTaskgraphResetRecordsAgain: after Reset the next encounter runs the
// body and records what it spawns now.
func TestTaskgraphResetRecordsAgain(t *testing.T) {
	rt := testRuntime(2)
	var tg Taskgraph
	var sum atomic.Int64
	bodies := 0
	encounter := func(v int64) {
		rt.Parallel(func(th *Thread) {
			if th.Num() == 0 {
				th.Taskgraph(&tg, func() {
					bodies++
					th.Task(func(*Thread) { sum.Add(v) })
				})
			}
		})
	}
	for _, v := range []int64{1, 2} { // record 1, replay 1
		encounter(v)
	}
	tg.Reset()
	for _, v := range []int64{10, 20} { // record 10, replay 10
		encounter(v)
	}
	if bodies != 2 || sum.Load() != 22 {
		t.Errorf("body ran %d times, tasks summed %d; want 2 and 1+1+10+10", bodies, sum.Load())
	}
}

// TestTaskgraphAcrossRegions: a graph recorded in one region replays
// correctly in later regions, on teams of other sizes and from an explicit
// task's context.
func TestTaskgraphAcrossRegions(t *testing.T) {
	rt := testRuntime(2)
	var tg Taskgraph
	var log taskLog
	var x, y int
	bodies := 0
	graph := func(th *Thread) {
		th.Taskgraph(&tg, func() {
			bodies++
			diamond(th, &log, &x, &y)
		})
		if err := log.check("abcdef", diamondOrder); err != nil {
			t.Error(err)
		}
	}
	for _, n := range []int{2, 2, 3, 1} {
		rt.Parallel(func(th *Thread) {
			if th.Num() == 0 {
				graph(th)
				th.Task(graph) // from an explicit task
			}
		}, NumThreads(n))
	}
	if bodies != 1 {
		t.Errorf("body ran %d times over 8 encounters, want once", bodies)
	}
}

// TestTaskPanicContained: a task body that panics — a plain task, a
// depend-task with a successor, a replayed task — retires normally, so the
// region joins, Parallel rethrows the value on the caller, and the runtime
// stays usable with its thread budget returned.
func TestTaskPanicContained(t *testing.T) {
	for _, n := range []int{1, 2} {
		for _, kind := range []string{"plain", "depend", "replayed"} {
			rt := testRuntime(n)
			var tg Taskgraph
			var x int
			var after atomic.Int64
			var fail atomic.Bool // read by the replayed task, built at the record
			region := func(th *Thread) {
				if th.Num() != 0 {
					return
				}
				switch kind {
				case "plain":
					th.Task(func(*Thread) { panic("boom") })
					th.Taskwait()
				case "depend":
					th.Task(func(*Thread) { panic("boom") }, DependOut(&x))
					th.Task(func(*Thread) { after.Add(1) }, DependIn(&x))
					th.Taskwait()
				case "replayed":
					th.Taskgraph(&tg, func() {
						th.Task(func(*Thread) {
							if fail.Load() {
								panic("boom")
							}
						}, DependOut(&x))
						th.Task(func(*Thread) { after.Add(1) }, DependIn(&x))
					})
				}
			}
			if kind == "replayed" {
				rt.Parallel(region) // records
				after.Store(0)
			}
			fail.Store(true)
			got := func() (v any) {
				defer func() { v = recover() }()
				rt.Parallel(region)
				return nil
			}()
			label := fmt.Sprintf("%s task, team of %d", kind, n)
			if got != "boom" {
				t.Errorf("%s: Parallel panicked with %v, want boom", label, got)
			}
			if kind != "plain" && after.Load() != 1 {
				t.Errorf("%s: the successor ran %d times, want 1", label, after.Load())
			}
			var ran atomic.Int64
			rt.Parallel(func(th *Thread) {
				for i := 0; i < 50; i++ {
					th.Task(func(*Thread) { ran.Add(1) })
				}
			})
			if want := int64(50 * n); ran.Load() != want {
				t.Errorf("%s: next region ran %d tasks, want %d", label, ran.Load(), want)
			}
			rt.Quiesce()
			if used := rt.Pool().ThreadBudgetUsed(); used != 0 {
				t.Errorf("%s: thread budget %d after the panic, want 0", label, used)
			}
		}
	}
}
