package core

import (
	"fmt"
	"reflect"
	"runtime"
	"unsafe"

	"repro/internal/kmp"
	"repro/internal/task"
	"repro/internal/trace"
)

// Explicit tasking: the task, taskwait, taskgroup, taskyield and taskloop
// constructs. The paper lists tasking among OpenMP's major features; it is
// implemented here over the work-stealing + dependency pool in internal/task.
//
// The layer is built to keep the steady-state spawn path allocation-free on
// top of the pool's recycled Units: options are plain value structs (no
// closures to box), depend lists are assembled in a per-Thread scratch
// buffer, the task body rides in the Unit's User field (funcs are
// pointer-shaped, so the interface conversion does not allocate), and the
// per-execution Thread contexts are recycled on a per-member stack.

// TaskOption configures a task (the clauses of `omp task` / `omp taskloop`):
// depend(in/out/inout), priority, final, if, and the taskloop-only num_tasks
// and nogroup modes. It is a value — constructors pack the clause into the
// struct and applyTaskOpts unpacks it without heap traffic.
type TaskOption struct {
	kind  optKind
	dkind task.DepKind
	n     int
	flag  bool
	na    int    // count of inline dependence addresses in a
	a     [3]any // dependence addresses, inline up to 3
	addrs []any  // overflow dependence addresses (rare: >3 per clause)
}

type optKind uint8

const (
	optDep optKind = iota
	optPriority
	optFinal
	optIf
	optNumTasks
	optNoGroup
)

type taskConfig struct {
	deps     []task.Dep
	priority int
	final    bool
	ifClause bool
	hasIf    bool
	numTasks int
	nogroup  bool
}

// depOpt packs a depend clause. Up to three addresses live inline in the
// option value; the unconditional copy (rather than retaining the variadic
// slice) lets the caller's argument slice stay on its stack.
func depOpt(kind task.DepKind, addrs []any) TaskOption {
	o := TaskOption{kind: optDep, dkind: kind}
	if len(addrs) <= len(o.a) {
		o.na = copy(o.a[:], addrs)
		return o
	}
	o.na = copy(o.a[:], addrs[:len(o.a)])
	o.addrs = append([]any(nil), addrs[len(o.a):]...)
	return o
}

// depAddr extracts the dependence address of a depend-clause list item: the
// storage the pointer-like value designates. Dependences are matched by
// address identity, exactly libomp's dephash keying. The data word is read
// straight out of the interface header — reflect.ValueOf would force the
// value to escape, putting an allocation on every registration.
func depAddr(v any) uintptr {
	if v == nil {
		panic("gomp: depend address must be a non-nil pointer-like value, got <nil>")
	}
	data := (*[2]unsafe.Pointer)(unsafe.Pointer(&v))[1]
	var p uintptr
	switch reflect.TypeOf(v).Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Chan, reflect.Func:
		// Pointer-shaped values: the interface data word is the pointer.
		p = uintptr(data)
	case reflect.Slice:
		// A boxed slice's data word points at its header; the dependence
		// identity is the backing array.
		if data != nil {
			p = *(*uintptr)(data)
		}
	}
	if p == 0 {
		panic(fmt.Sprintf("gomp: depend address must be a non-nil pointer-like value, got %T", v))
	}
	return p
}

// DependIn is depend(in: addrs...): the task reads the named storage and
// must wait for its last writer among the siblings spawned so far.
func DependIn(addrs ...any) TaskOption { return depOpt(task.DepIn, addrs) }

// DependOut is depend(out: addrs...): the task writes the named storage and
// must wait for the last writer and every reader since.
func DependOut(addrs ...any) TaskOption { return depOpt(task.DepOut, addrs) }

// DependInOut is depend(inout: addrs...): read-modify-write ordering, the
// same edges as DependOut.
func DependInOut(addrs ...any) TaskOption { return depOpt(task.DepInOut, addrs) }

// Priority is the priority clause: tasks with higher n are preferred at
// task scheduling points (a hint, per the spec; levels are clamped to
// task.PrioLevels buckets).
func Priority(n int) TaskOption { return TaskOption{kind: optPriority, n: n} }

// Final is the final clause: when cond is true the task and all of its
// descendants execute undeferred and included (immediately, on the
// encountering thread) — the spec's recursion cutoff device.
func Final(cond bool) TaskOption { return TaskOption{kind: optFinal, flag: cond} }

// TaskIf is the if clause on a task-generating construct: when cond is
// false the task is undeferred — the encountering thread suspends until the
// task completes (running it immediately, or helping until its dependences
// allow it to run).
func TaskIf(cond bool) TaskOption { return TaskOption{kind: optIf, flag: cond} }

// NumTasks is the num_tasks clause on taskloop: split the iteration space
// into (up to) n tasks. Ignored when an explicit grainsize is given.
func NumTasks(n int) TaskOption { return TaskOption{kind: optNumTasks, n: n} }

// NoGroup is the nogroup clause on taskloop: do not wrap the generated
// tasks in an implicit taskgroup — the construct returns immediately and
// the tasks settle at the next taskwait or barrier.
func NoGroup() TaskOption { return TaskOption{kind: optNoGroup} }

// applyTaskOpts folds options into a config. Dependence lists are built in
// the Thread's recycled scratch buffer — registration consumes them before
// the spawn returns, so the buffer is immediately reusable.
func (t *Thread) applyTaskOpts(opts []TaskOption) taskConfig {
	cfg := taskConfig{deps: t.depScratch[:0]}
	for i := range opts {
		o := &opts[i]
		switch o.kind {
		case optDep:
			for j := 0; j < o.na; j++ {
				cfg.deps = append(cfg.deps, task.Dep{Addr: depAddr(o.a[j]), Kind: o.dkind})
			}
			for _, a := range o.addrs {
				cfg.deps = append(cfg.deps, task.Dep{Addr: depAddr(a), Kind: o.dkind})
			}
		case optPriority:
			cfg.priority = o.n
		case optFinal:
			cfg.final = cfg.final || o.flag
		case optIf:
			cfg.ifClause = o.flag
			cfg.hasIf = true
		case optNumTasks:
			cfg.numTasks = o.n
		case optNoGroup:
			cfg.nogroup = true
		}
	}
	if cap(cfg.deps) > cap(t.depScratch) {
		t.depScratch = cfg.deps
	}
	return cfg
}

// parentUnit returns the Unit children of this context attach to: the
// current explicit task, or the implicit task's lazily created sentinel.
func (t *Thread) parentUnit() *task.Unit {
	if t.curTask != nil {
		return t.curTask
	}
	if t.rootTask == nil {
		t.rootTask = task.NewRoot(t.team.Tasks())
	}
	return t.rootTask
}

// taskExec is the pool's executor for Units spawned with a nil fn: it
// resolves the implicit-task Thread cached on the team slot, arms a
// recycled per-member task Thread as the body's context, and runs the
// payload carried in Unit.User — no per-spawn closure, no per-execution
// Thread allocation. Installed once per Runtime (NewRuntime). A body that
// panics is contained as a region body is (kmp.Team.Abort), so the task
// retires normally and the master rethrows the value after the join.
func (r *Runtime) taskExec(p *task.Pool, u *task.Unit, tid int) {
	tm, _ := p.Owner().(*kmp.Team)
	var base *Thread // the implicit-task Thread whose context stack tt is on
	defer func() {
		if base != nil {
			base.popTaskThread()
		}
		if v := recover(); v != nil {
			if tm == nil {
				panic(v) // no team, no join to rethrow it at
			}
			tm.Abort(v)
		}
	}()
	if u.Loop() {
		// Loop-form taskloop chunk: the body takes iteration indices, not
		// a Thread, so no context is needed at all.
		if trace.Enabled() {
			trace.Emit(trace.EvTaskRun, taskGTID(tm, tid), 0)
		}
		body := u.User().(func(int))
		for i, hi := u.Lo(), u.Hi(); i < hi; i++ {
			body(i)
		}
		return
	}
	if tm != nil {
		base, _ = (*tm.Ctx(tid)).(*Thread)
	}
	var tt *Thread
	if base != nil {
		tt = base.pushTaskThread()
	} else {
		tt = new(Thread) // no cached implicit-task context; rare, cold path
	}
	*tt = Thread{rt: r, team: tm, tid: tid, curTask: u, curGroup: u.Group(),
		nestScratch: tt.nestScratch, depScratch: tt.depScratch,
		taskCtxs: tt.taskCtxs, groups: tt.groups}
	if trace.Enabled() {
		trace.Emit(trace.EvTaskRun, tt.GlobalID(), 0)
	}
	u.User().(func(*Thread))(tt)
}

func taskGTID(tm *kmp.Team, tid int) int {
	if tm != nil {
		return tm.GTID(tid)
	}
	return tid
}

// Task creates an explicit task — the task construct. fn may execute on any
// team thread at a task scheduling point (taskwait, taskgroup end, barriers,
// taskyield); it receives the executing thread's context. Options carry the
// depend, priority, final and if clauses. Outside a parallel region the
// task is undeferred: it executes immediately, as the spec allows for a
// team of one.
func (t *Thread) Task(fn func(tt *Thread), opts ...TaskOption) {
	if t.team == nil {
		fn(t)
		return
	}
	var cfg taskConfig
	if len(opts) > 0 { // keeps the no-option spawn free of option handling
		cfg = t.applyTaskOpts(opts)
	}
	t.spawnTask(&cfg, task.SpawnOpts{User: fn})
}

// spawnTask is the shared task-generating path for Task and Taskloop; so
// carries the payload (User and the loop-form fields), cfg the clauses.
// Undeferred tasks (final, false if clause, or a final ancestor) complete
// before it returns: dependence-free ones run inline on the encountering
// thread; ones with depend clauses are registered normally and the thread
// executes other ready tasks until the new task has run.
func (t *Thread) spawnTask(cfg *taskConfig, so task.SpawnOpts) {
	if trace.Enabled() {
		trace.Emit(trace.EvTaskCreate, t.GlobalID(), int64(cfg.priority))
	}
	parent := t.parentUnit()
	so.Priority = cfg.priority
	so.Deps = cfg.deps
	so.Final = cfg.final || parent.Final()
	undeferred := so.Final || (cfg.hasIf && !cfg.ifClause)
	pool := t.team.Tasks()
	if undeferred {
		t.noReplay()
	}
	switch {
	case undeferred && len(cfg.deps) == 0:
		pool.RunInline(t.tid, parent, t.curGroup, so, nil)
	case undeferred:
		pool.WaitHandle(t.tid, pool.SpawnOpt(t.tid, parent, t.curGroup, so, nil))
	default:
		pool.SpawnOpt(t.tid, parent, t.curGroup, so, nil)
	}
}

// Taskwait blocks until all child tasks of the current task have completed
// — the taskwait construct. While waiting, the thread executes ready tasks.
func (t *Thread) Taskwait() {
	if t.team == nil {
		return
	}
	t.noReplay()
	t.team.Tasks().WaitChildren(t.tid, t.parentUnit())
}

// taskgroupBegin pushes a recycled group descriptor and makes it current;
// taskgroupEnd restores the caller-saved previous group and waits for the
// pushed one. Split out so Taskloop's implicit taskgroup needs no closure.
func (t *Thread) taskgroupBegin() *task.Group {
	if t.groupDepth == len(t.groups) {
		t.groups = append(t.groups, new(task.Group))
	}
	g := t.groups[t.groupDepth]
	t.groupDepth++
	t.curGroup = g
	return g
}

func (t *Thread) taskgroupEnd(g *task.Group, prev *task.Group) {
	t.curGroup = prev
	t.team.Tasks().WaitGroup(t.tid, g)
	t.groupDepth--
}

// Taskgroup runs fn and then waits for all tasks spawned inside it —
// including descendants — to complete (the taskgroup construct). Group
// descriptors are recycled per Thread: a group's count is provably zero
// when its wait returns, and every task spawned into it has fully retired
// its reference, so reuse by a later taskgroup cannot miscount.
func (t *Thread) Taskgroup(fn func()) {
	if t.team == nil {
		fn()
		return
	}
	t.noReplay()
	prev := t.curGroup
	g := t.taskgroupBegin()
	fn()
	t.taskgroupEnd(g, prev)
}

// Taskyield lets the thread execute one ready task if any is available —
// the taskyield construct.
func (t *Thread) Taskyield() {
	if t.team == nil {
		return
	}
	t.noReplay()
	if !t.team.Tasks().RunOne(t.tid) {
		runtime.Gosched()
	}
}

// Taskloop distributes iterations 0..n-1 over explicit tasks of grainsize
// iterations each and waits for them — the taskloop construct (which waits
// by default; unlike a worksharing loop it needs no team-wide barrier and
// may be called by a single thread). grainsize <= 0 picks NumTasks chunks
// when that option is given, else one task per team thread (the
// implementation-defined default). NoGroup skips the implicit taskgroup;
// Priority/Final/TaskIf apply to each generated task. Chunks are loop-form
// Units — the bounds ride in the Unit and the body func is shared — so a
// steady-state taskloop allocates nothing.
func (t *Thread) Taskloop(n int, grainsize int, body func(i int), opts ...TaskOption) {
	if n <= 0 {
		return
	}
	if t.team == nil {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	t.noReplay()
	var cfg taskConfig
	if len(opts) > 0 {
		cfg = t.applyTaskOpts(opts)
	}
	if len(cfg.deps) > 0 {
		// The depend clause is not valid on taskloop (OpenMP 5.2 §12.6);
		// silently dropping the edges would hide a data race.
		panic("gomp: depend options are not valid on Taskloop")
	}
	if grainsize <= 0 && cfg.numTasks > 0 {
		grainsize = (n + cfg.numTasks - 1) / cfg.numTasks
	}
	if grainsize <= 0 {
		grainsize = (n + t.team.N() - 1) / t.team.N()
	}
	if grainsize < 1 {
		grainsize = 1
	}
	// Per-chunk task options: scheduling clauses carry over; the
	// taskloop-shape ones (num_tasks, nogroup) are consumed here.
	tcfg := taskConfig{priority: cfg.priority, final: cfg.final,
		ifClause: cfg.ifClause, hasIf: cfg.hasIf}
	var g, prev *task.Group
	if !cfg.nogroup {
		prev = t.curGroup
		g = t.taskgroupBegin()
	}
	for lo := 0; lo < n; lo += grainsize {
		hi := min(lo+grainsize, n)
		t.spawnTask(&tcfg, task.SpawnOpts{User: body, Loop: true, Lo: lo, Hi: hi})
	}
	if !cfg.nogroup {
		t.taskgroupEnd(g, prev)
	}
}
