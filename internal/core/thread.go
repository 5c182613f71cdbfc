package core

import (
	"repro/internal/kmp"
	"repro/internal/task"
)

// Thread is one team member's execution context inside a parallel region —
// the receiver for every construct that needs thread identity. A Thread is
// only valid on the goroutine it was handed to and within the region that
// created it.
type Thread struct {
	rt   *Runtime
	team *kmp.Team
	tid  int
	// wsSeq numbers the ring-backed worksharing constructs (see
	// kmp/workshare.go) this thread has encountered; all team members meet
	// construct k with the same seq (the OpenMP same-order requirement),
	// which is how they find the shared construct state.
	wsSeq int64
	// singles counts the single constructs this thread has met (the
	// argument of kmp.Team.TrySingle); redParity is the team reduction
	// slot parity its next reduction writes. Both restart each region.
	singles   int64
	redParity int
	// curTask is the innermost explicit task being executed, nil inside
	// the implicit task; taskwait waits on its children.
	curTask *task.Unit
	// rootTask is the implicit task's sentinel parent, created lazily and
	// kept across regions while it is idle (threadFor).
	rootTask *task.Unit
	// curGroup is the innermost enclosing taskgroup, if any.
	curGroup *task.Group
	// graph is the task graph this context is recording, nil outside a
	// taskgraph's first encounter (taskgraph.go).
	graph *task.Graph
	// nestScratch is the reusable trips+ix buffer of the collapsed-loop
	// constructs (ForNest, ForDoacross); Thread contexts are recycled with
	// their team, so steady-state collapsed loops allocate nothing here.
	// Frames are stacked at nestBase offsets so a nested collapsed loop on
	// the same Thread (a serialized inner region, a sequential-context
	// nest) cannot alias an outer loop's live trips/ix slices.
	nestScratch []int64
	nestBase    int
	// ordScratch and doaScratch are the recycled per-loop ordered and
	// doacross iteration contexts, re-armed per iteration so the hot paths
	// allocate no ctx objects.
	ordScratch OrderedCtx
	doaScratch DoacrossCtx
	// depScratch is the recycled depend-clause buffer: applyTaskOpts
	// assembles each spawn's []task.Dep here and registration consumes it
	// before the spawn returns, so steady-state depend tasks build their
	// dep lists without allocating.
	depScratch []task.Dep
	// taskCtxs stacks recycled Thread contexts for the explicit tasks this
	// implicit-task thread executes (taskExec pushes one per nesting
	// level); taskDepth is the live depth.
	taskCtxs  []*Thread
	taskDepth int
	// groups stacks recycled taskgroup descriptors the same way.
	groups     []*task.Group
	groupDepth int
}

// pushTaskThread returns a recycled Thread context for an explicit task
// about to execute on this implicit-task thread; popTaskThread releases it.
// Execution nests strictly (a task runs other tasks only inside its own
// scheduling points), so a stack suffices.
func (t *Thread) pushTaskThread() *Thread {
	if t.taskDepth == len(t.taskCtxs) {
		t.taskCtxs = append(t.taskCtxs, new(Thread))
	}
	tt := t.taskCtxs[t.taskDepth]
	t.taskDepth++
	return tt
}

func (t *Thread) popTaskThread() { t.taskDepth-- }

// sequentialThread returns the context used outside any parallel region: a
// one-member conceptual team, lazily created. Constructs degenerate
// correctly (barriers are no-ops, loops run whole, single always wins).
func (r *Runtime) sequentialThread() *Thread {
	return &Thread{rt: r, team: nil, tid: 0}
}

// Num returns the thread number within the team (omp_get_thread_num).
func (t *Thread) Num() int { return t.tid }

// NumThreads returns the team size (omp_get_num_threads).
func (t *Thread) NumThreads() int {
	if t.team == nil {
		return 1
	}
	return t.team.N()
}

// GlobalID returns the runtime-wide thread id (libomp's gtid); the initial
// thread is 0.
func (t *Thread) GlobalID() int {
	if t.team == nil {
		return 0
	}
	return t.team.GTID(t.tid)
}

// InParallel reports whether the thread is inside an active parallel region
// (omp_in_parallel).
func (t *Thread) InParallel() bool { return t.team != nil && t.team.ActiveLevel() > 0 }

// Level returns the number of enclosing parallel regions (omp_get_level).
func (t *Thread) Level() int {
	if t.team == nil {
		return 0
	}
	return t.team.Level()
}

// ActiveLevel returns the number of enclosing active parallel regions
// (omp_get_active_level).
func (t *Thread) ActiveLevel() int {
	if t.team == nil {
		return 0
	}
	return t.team.ActiveLevel()
}

// Barrier executes a team barrier (the barrier directive). Outside a
// parallel region it is a no-op, as the spec prescribes for a team of one.
func (t *Thread) Barrier() {
	if t.team == nil {
		return
	}
	t.noReplay()
	t.team.Barrier(t.tid)
}

// nextSeq allocates the next worksharing construct sequence number.
func (t *Thread) nextSeq() int64 {
	t.wsSeq++
	return t.wsSeq
}

// construct returns (seq, shared entry) for the worksharing construct the
// thread is entering, or (0, nil) when executing sequentially.
func (t *Thread) construct() (int64, *kmp.WSEntry) {
	if t.team == nil {
		return 0, nil
	}
	seq := t.nextSeq()
	return seq, t.team.Construct(seq)
}

// Cancel requests cancellation of the innermost parallel region (the
// cancel construct with the parallel clause).
func (t *Thread) Cancel() {
	if t.team != nil {
		t.team.Cancel()
	}
}

// CancellationPoint reports whether cancellation has been requested; loop
// bodies poll it to honour a cancel from a sibling thread.
func (t *Thread) CancellationPoint() bool {
	return t.team != nil && t.team.Cancelled()
}
