// Package kmp is the fork-join heart of the runtime — the analog of the
// LLVM OpenMP runtime (libomp, the `__kmpc_*` entry points) that the paper
// links its generated Zig code against.
//
// A Pool owns a set of persistent workers and a cache of "hot teams"
// (libomp's __kmp_allocate_team fast path): the whole Team object — barrier,
// worksharing ring, task pool, gtids and worker bindings — survives across
// parallel regions of the same shape, so the steady-state fork→join cycle
// performs no heap allocation and takes no locks. Workers park on per-worker
// epoch "doors" rather than channels: the forking thread publishes the
// microtask on the team and releases each worker by bumping its door epoch,
// and the region-end barrier doubles as the join. Fork creates (or revives) a
// Team whose member 0 is the forking goroutine itself, exactly OpenMP's
// master-participates semantics, and whose members 1..n-1 are pool workers.
//
// Worksharing constructs that need shared state (dynamic, guided and steal
// loops, ordered, doacross, sections, copyprivate; see workshare.go) find it
// in a fixed ring of pre-allocated entries per team — libomp's
// dispatch-buffer scheme — each caching its loop scheduler across tenants
// (sched.Scheduler.Reset in place), so steady-state loops of any schedule
// kind, including the work-stealing steal scheduler, allocate nothing.
// Static loops, reductions and single need no entry: the team carries a
// single counter and per-member reduction slots instead.
package kmp

import (
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/barrier"
	"repro/internal/icv"
	"repro/internal/task"
	"repro/internal/trace"
)

// Pool is a device-wide thread pool plus the ICVs governing it. The zero
// value is not usable; call NewPool.
type Pool struct {
	icvs        *icv.Set
	barrierKind barrier.Kind

	// taskExec is the embedding layer's executor for closure-free task
	// payloads, copied into every team's task pool at construction (see
	// task.Pool.SetExec). Installed once before any team exists.
	taskExec task.ExecFunc

	mu   sync.Mutex
	free []*worker // idle, unbound workers, LIFO for cache warmth
	next atomic.Int64
	live atomic.Int64 // workers alive (thread-limit accounting)

	// shards is the sharded top-level hot-team cache (see shards.go):
	// per-shard parallel+serial slots indexed by a goroutine-affinity hash,
	// with cross-shard stealing on miss, so concurrent forks from unrelated
	// goroutines stop serialising on one slot. hotLeague caches the last
	// teams-construct league. A slot is claimed by Swap and reinstalled by
	// CAS, so concurrent forks race safely: the loser builds a cold team.
	shards      atomic.Pointer[shardSet]
	shardSteals atomic.Int64
	hotLeague   atomic.Pointer[Team]

	// budget is the thread-budget arbiter charging every active region's
	// extra threads against thread-limit-var (see arbiter.go).
	budget arbiter

	// forkICVs is the atomically published snapshot of the ICVs every fork
	// reads (team size, dyn-var, thread limit, nesting cap). Runtime setters
	// (omp_set_num_threads and friends) publish a fresh snapshot instead of
	// mutating icvs fields in place, so a setter racing a storm of concurrent
	// forks can never tear a team-size read. While nothing has been
	// published, forks read the plain icvs fields — single-threaded
	// configuration (tests, env init) keeps working unchanged.
	icvMu    sync.Mutex
	forkICVs atomic.Pointer[forkVars]
}

// forkVars is the fork-relevant ICV snapshot; see Pool.forkICVs.
type forkVars struct {
	numThreads      []int
	dynamic         bool
	threadLimit     int
	maxActiveLevels int
}

// forkSnapshot returns the current fork-relevant ICVs: the published
// snapshot when one exists, the plain icvs fields otherwise.
func (p *Pool) forkSnapshot() forkVars {
	if fv := p.forkICVs.Load(); fv != nil {
		return *fv
	}
	return forkVars{
		numThreads:      p.icvs.NumThreads,
		dynamic:         p.icvs.Dynamic,
		threadLimit:     p.icvs.ThreadLimit,
		maxActiveLevels: p.icvs.MaxActiveLevels,
	}
}

// publishForkVars mutates a copy of the current snapshot and publishes it.
// Publishers are serialised by icvMu so concurrent setters never lose each
// other's updates; readers are wait-free. The plain icvs fields are left
// untouched once publishing starts — writing them here would reintroduce
// the very tear this snapshot exists to close.
func (p *Pool) publishForkVars(mut func(*forkVars)) {
	p.icvMu.Lock()
	fv := p.forkSnapshot()
	fv.numThreads = append([]int(nil), fv.numThreads...)
	mut(&fv)
	p.forkICVs.Store(&fv)
	p.icvMu.Unlock()
}

// SetNumThreadsVar atomically publishes nthreads-var (omp_set_num_threads).
func (p *Pool) SetNumThreadsVar(list []int) {
	p.publishForkVars(func(fv *forkVars) { fv.numThreads = list })
}

// SetDynVar atomically publishes dyn-var (omp_set_dynamic).
func (p *Pool) SetDynVar(on bool) {
	p.publishForkVars(func(fv *forkVars) { fv.dynamic = on })
}

// SetThreadLimitVar atomically publishes thread-limit-var.
func (p *Pool) SetThreadLimitVar(n int) {
	p.publishForkVars(func(fv *forkVars) { fv.threadLimit = n })
}

// SetMaxActiveLevelsVar atomically publishes max-active-levels-var.
func (p *Pool) SetMaxActiveLevelsVar(n int) {
	p.publishForkVars(func(fv *forkVars) { fv.maxActiveLevels = n })
}

// NumThreadsVarAt returns nthreads-var for a nesting level from the
// snapshot (omp_get_max_threads reads level 0).
func (p *Pool) NumThreadsVarAt(level int) int {
	fv := p.forkSnapshot()
	return icv.NumThreadsForLevel(fv.numThreads, level)
}

// DynVar returns dyn-var from the snapshot.
func (p *Pool) DynVar() bool { return p.forkSnapshot().dynamic }

// ThreadLimitVar returns thread-limit-var from the snapshot.
func (p *Pool) ThreadLimitVar() int { return p.forkSnapshot().threadLimit }

// MaxActiveLevelsVar returns max-active-levels-var from the snapshot.
func (p *Pool) MaxActiveLevelsVar() int { return p.forkSnapshot().maxActiveLevels }

// NewPool creates a pool configured by icvs (nil means icv.Default()).
func NewPool(icvs *icv.Set) *Pool {
	if icvs == nil {
		icvs = icv.Default()
	}
	p := &Pool{icvs: icvs, barrierKind: barrier.DisseminationKind}
	p.initShards(icvs.TeamShards)
	return p
}

// SetTaskExec installs the executor run for tasks spawned with a nil fn
// (the embedding layer's closure-free dispatch). Must be called before the
// first fork; teams built afterwards inherit it.
func (p *Pool) SetTaskExec(fn task.ExecFunc) { p.taskExec = fn }

// ICVs returns the pool's internal control variables.
func (p *Pool) ICVs() *icv.Set { return p.icvs }

// SetBarrierKind selects the barrier algorithm used by new teams (the A1
// ablation toggles this). A cached hot team built with a different kind is
// dismantled and rebuilt on its next fork.
func (p *Pool) SetBarrierKind(k barrier.Kind) { p.barrierKind = k }

// BarrierKind returns the barrier algorithm for new teams.
func (p *Pool) BarrierKind() barrier.Kind { return p.barrierKind }

// worker is a persistent goroutine that executes one microtask per dispatch
// cycle. While bound to a (possibly cached) team it parks on its door.
type worker struct {
	gtid int
	door door
}

// door is the park/dispatch state of one worker. The master writes the
// (team, tid) binding while the worker is parked, publishes the microtask on
// the team, then releases the worker by incrementing epoch; the worker
// records each fully completed cycle in done. Both counters are monotonic
// and the worker waits for epoch >= its next cycle number (a level, not an
// edge), so a release can never be lost. A worker parked long enough to
// exhaust its sleep backoff publishes state=doorBlocked and blocks on wake;
// release signals the channel only in that case, so the steady-state
// dispatch cost is one atomic add plus one load per worker.
type door struct {
	epoch atomic.Int64
	done  atomic.Int64
	state atomic.Int32 // doorActive or doorBlocked
	wake  chan struct{}
	team  *Team
	tid   int
	stop  atomic.Bool
	_     [16]byte // keep neighbouring workers' doors off this cache line
}

const (
	doorActive  = 0
	doorBlocked = 1

	// doorSleepRounds bounds the sleep stage (~6 ms at the shared backoff
	// shape) before a worker falls through to blocking on its wake channel.
	doorSleepRounds = 64
)

func (p *Pool) newWorker() *worker {
	w := &worker{gtid: int(p.next.Add(1))}
	w.door.wake = make(chan struct{}, 1)
	p.live.Add(1)
	go w.run()
	return w
}

// run is the worker loop: park on the door, execute the dispatched
// microtask, arrive at the region-end barrier (which is the join — the
// master's own barrier wait returns only after every member has arrived, so
// no WaitGroup is needed), record completion, repeat.
func (w *worker) run() {
	for cycle := int64(1); ; cycle++ {
		w.awaitEpoch(cycle)
		if w.door.stop.Load() {
			return
		}
		tm, tid := w.door.team, w.door.tid
		tm.invoke(tid)
		// Implicit barrier at region end: all explicit tasks must finish
		// before the region completes, and the master leaves Fork only
		// when this barrier releases.
		tm.Barrier(tid)
		w.door.done.Store(cycle)
	}
}

// awaitEpoch parks until the door's epoch reaches cycle: spin briefly,
// yield, sleep with bounded backoff (~6 ms total, the KMP_BLOCKTIME analog),
// and finally block on the wake channel so a worker parked across a long
// sequential phase costs zero CPU — the same fall-through from spinning to
// a futex that libomp performs after its blocktime expires. Regardless of
// the wait policy the wait always escalates: a worker may park here for the
// program's entire sequential phase.
func (w *worker) awaitEpoch(cycle int64) {
	for i := activeDoorSpins(); i > 0; i-- {
		if w.door.epoch.Load() >= cycle {
			return
		}
	}
	for i := 0; ; i++ {
		if w.door.epoch.Load() >= cycle {
			return
		}
		switch {
		case i < barrier.YieldRounds:
			runtime.Gosched()
		case i < barrier.YieldRounds+doorSleepRounds:
			barrier.SleepBackoff(i - barrier.YieldRounds)
		default:
			w.blockUntil(cycle)
			return
		}
	}
}

// blockUntil is the terminal, zero-CPU stage of the door wait. Publishing
// doorBlocked before re-checking the epoch closes the lost-wakeup race
// against release's epoch-increment-then-state-check (both sides use
// sequentially consistent atomics, so at least one observes the other);
// stale tokens from benign race outcomes surface as spurious wakeups, which
// the re-check loop absorbs.
func (w *worker) blockUntil(cycle int64) {
	for {
		w.door.state.Store(doorBlocked)
		if w.door.epoch.Load() >= cycle {
			w.door.state.Store(doorActive)
			return
		}
		<-w.door.wake
		w.door.state.Store(doorActive)
	}
}

// release opens the worker's door for its next cycle, signalling the wake
// channel only if the worker reached the blocking stage.
func (w *worker) release() {
	w.door.epoch.Add(1)
	if w.door.state.Load() == doorBlocked {
		select {
		case w.door.wake <- struct{}{}:
		default:
		}
	}
}

// awaitDone blocks until the worker has fully completed its last dispatched
// cycle (including its barrier exit), after which its binding may be
// rewritten. Only the cold rebind/dismantle path waits here.
func (w *worker) awaitDone() {
	for w.door.done.Load() < w.door.epoch.Load() {
		runtime.Gosched()
	}
}

// acquire returns an idle worker, spawning one if the free list is empty.
func (p *Pool) acquire() *worker {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		w := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return w
	}
	p.mu.Unlock()
	return p.newWorker()
}

// release parks an unbound worker back on the free list.
func (p *Pool) release(w *worker) {
	p.mu.Lock()
	p.free = append(p.free, w)
	p.mu.Unlock()
}

// IdleWorkers reports how many workers are parked on the free list. Workers
// bound to a cached hot team are not idle in this sense — they are reserved
// for that team's next fork (test/ablation hook).
func (p *Pool) IdleWorkers() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free)
}

// LiveWorkers reports how many workers exist.
func (p *Pool) LiveWorkers() int { return int(p.live.Load()) }

// Team is one parallel region's thread team. Teams are cached across
// regions (hot teams); all per-region state is reset in place by reset.
type Team struct {
	pool   *Pool
	parent *Team
	n      int
	// level counts enclosing parallel regions (OpenMP "level");
	// activeLevel counts those with n > 1 ("active level").
	level       int
	activeLevel int
	bar         barrier.Barrier
	barKind     barrier.Kind
	waitPolicy  icv.WaitPolicy
	ws          wsRing
	tasks       *task.Pool
	gtids       []int
	workers     []*worker // members 1..n-1
	// micro is the current region's microtask, published before the door
	// epochs are bumped and cleared at join so the closure is not retained.
	micro func(tm *Team, tid int)
	// ctxs holds one scratch slot per member for the embedding layer
	// (internal/core caches its *Thread contexts here so hot regions
	// allocate nothing above kmp either).
	ctxs []any
	// cancelled is set by a cancel construct; worksharing loops poll it.
	cancelled atomic.Bool
	// singles counts the single constructs the team has handed out this
	// region (libomp's t_construct; see TrySingle).
	singles atomic.Int64
	// partials holds one reduction partial per member and parity, each word
	// on its own cache line (see ReductionSlot).
	partials []partialSlot
	// children caches nested teams forked from this team: two slots per
	// member (parallel and serialised), indexed 2*ptid+serialBit, so
	// sibling members forking nested regions concurrently each keep their
	// own hot team (libomp's per-thread hot teams) and a member's
	// serialised nested regions don't evict its parallel one.
	children []atomic.Pointer[Team]
	// running guards against a team being claimed by two forkers at once:
	// the slot Swap protocol makes that impossible, and this cheap counter
	// turns any future bug in it into a loud panic instead of corrupted
	// worksharing state.
	running atomic.Int32
	// panicVal records the first panic recovered from any member's region
	// body; the master rethrows it after the join (see Team.invoke).
	panicVal atomic.Pointer[regionPanic]
}

// regionPanic boxes a recovered region-body panic value.
type regionPanic struct{ val any }

// partialSlot is one member's reduction partial, padded to a cache line.
type partialSlot struct {
	v uint64
	_ [56]byte
}

// N returns the team size.
func (t *Team) N() int { return t.n }

// Level returns the nesting level of this team (1 for the outermost
// parallel region, matching omp_get_level inside that region).
func (t *Team) Level() int { return t.level }

// ActiveLevel returns the number of enclosing active (n>1) regions.
func (t *Team) ActiveLevel() int { return t.activeLevel }

// Parent returns the enclosing team, or nil at the outermost level.
func (t *Team) Parent() *Team { return t.parent }

// Pool returns the owning pool.
func (t *Team) Pool() *Pool { return t.pool }

// Tasks returns the team's explicit-task pool.
func (t *Team) Tasks() *task.Pool { return t.tasks }

// GTID returns the global thread id of team member tid (0 is the master's).
func (t *Team) GTID(tid int) int { return t.gtids[tid] }

// Ctx returns member tid's scratch slot. The slot survives team reuse, so an
// embedding layer can cache its per-member context there; it is only
// accessed by member tid during a region, and team hand-off orders accesses
// across regions.
func (t *Team) Ctx(tid int) *any { return &t.ctxs[tid] }

// TrySingle reports whether the calling member wins its seq-th single
// construct of the region (seq counts from 1 on every member) — libomp's
// __kmpc_single. Members meet singles in the same order, so when a member
// reaches single seq the counter is at least seq-1 (its own previous single
// was claimed by someone), and the first member to move it from seq-1 to seq
// is the only winner. Losers that find it already advanced skip the CAS.
func (t *Team) TrySingle(seq int64) bool {
	return t.singles.Load() < seq && t.singles.CompareAndSwap(seq-1, seq)
}

// ReductionSlot returns member tid's partial word for a reduction of the
// given parity (0 or 1). A reduction writes its members' slots, crosses a
// barrier and reads them all; alternating parities lets the next reduction
// start writing while a slow member still reads this one, because a member
// can write parity p again only after every member has passed the barrier
// of the reduction in between, i.e. has finished reading parity p.
func (t *Team) ReductionSlot(parity, tid int) *uint64 {
	return &t.partials[parity*t.n+tid].v
}

// Cancel requests cancellation of the innermost region (cancel construct).
func (t *Team) Cancel() { t.cancelled.Store(true) }

// Cancelled reports whether cancellation was requested
// (cancellation point construct).
func (t *Team) Cancelled() bool { return t.cancelled.Load() }

// Barrier executes a full team barrier for member tid. Barriers are task
// scheduling points: the thread first helps drain the explicit-task pool so
// that every task is complete when the barrier releases (OpenMP 5.2 §15.3),
// and then keeps executing tasks *while it waits* (WaitWork) — an
// early-arriving member picks up tasks that late members spawn or that a
// completing predecessor releases, which is free throughput on imbalanced
// regions. The protocol stays sound: a task is counted in Outstanding from
// spawn to retirement, so the last member's Quiesce cannot arrive while any
// task (including one executing inside a peer's barrier wait) is unfinished.
func (t *Team) Barrier(tid int) {
	if trace.Enabled() {
		trace.Emit(trace.EvBarrierEnter, t.GTID(tid), int64(t.n))
		defer trace.Emit(trace.EvBarrierExit, t.GTID(tid), int64(t.n))
	}
	t.tasks.Quiesce(tid)
	t.bar.WaitWork(tid, t.tasks)
}

// ForkSpec carries the clauses of a parallel directive that affect forking.
type ForkSpec struct {
	// NumThreads is the num_threads clause value; 0 means unset (use the
	// nthreads-var ICV).
	NumThreads int
	// Serial, when true, forces a team of one (a false if clause).
	Serial bool
}

// TeamSize computes the team size Fork would request, applying the if
// clause, nesting rules, ICVs and the thread limit; Fork may still shrink
// the request through the thread-budget arbiter (see admitTeam). All ICVs
// are read from one atomic snapshot, so a concurrent omp_set_num_threads
// cannot tear the arithmetic. Exposed so tests can check the spec
// arithmetic without forking.
func (p *Pool) TeamSize(parent *Team, spec ForkSpec) int {
	fv := p.forkSnapshot()
	level, activeLevel := 0, 0
	if parent != nil {
		level, activeLevel = parent.level, parent.activeLevel
	}
	if spec.Serial {
		return 1
	}
	// Nested beyond max-active-levels: serialise.
	if activeLevel >= fv.maxActiveLevels {
		return 1
	}
	n := spec.NumThreads
	if n <= 0 {
		n = icv.NumThreadsForLevel(fv.numThreads, level)
	}
	if lim := fv.threadLimit; n > lim {
		n = lim
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Fork runs micro(team, tid) on a team of TeamSize threads and joins them.
// The caller participates as tid 0; the call returns when every team member
// has finished (the implicit join — OpenMP's implicit *barrier* at region
// end is the join itself: the master's region-end barrier wait releases only
// once all members have arrived).
//
// In the steady state — a fork whose resolved size matches the cached hot
// team — Fork allocates nothing and takes no locks: one atomic Swap claims
// the team, per-worker epoch bumps dispatch it, and one CAS reinstalls it.
func (p *Pool) Fork(parent *Team, spec ForkSpec, micro func(tm *Team, tid int)) {
	p.ForkFrom(parent, 0, spec, micro)
}

// ForkFrom is Fork with the forking member's tid in the parent team made
// explicit, which keys the nested hot-team cache: sibling members forking
// nested regions concurrently each reuse their own cached team instead of
// contending for one slot. Fork(parent, ...) is ForkFrom(parent, 0, ...).
func (p *Pool) ForkFrom(parent *Team, ptid int, spec ForkSpec, micro func(tm *Team, tid int)) {
	n := p.admitTeam(p.TeamSize(parent, spec))
	if trace.Enabled() {
		gtid := 0
		if parent != nil {
			gtid = parent.GTID(ptid)
		}
		trace.Emit(trace.EvRegionFork, gtid, int64(n))
		defer trace.Emit(trace.EvRegionJoin, gtid, int64(n))
	}
	if parent != nil {
		level, activeLevel := parent.level+1, parent.activeLevel
		if n > 1 {
			activeLevel++
		}
		slot := &parent.children[childSlot(ptid, n)]
		tm := p.teamFor(slot, parent, n, level, activeLevel)
		// The epilogue is deferred so a region-body panic rethrown by
		// runTeam still reinstalls the (fully joined) team and returns the
		// granted threads to the budget — exact release on every path.
		defer p.forkEpilogue(slot, tm, n)
		p.runTeam(tm, micro)
		return
	}
	// anchor is the one stack slot both home-index hashes read, so claim and
	// reinstall agree unless the stack itself moved in between.
	var anchor byte
	ss := p.shards.Load()
	hi := ss.homeIndex(unsafe.Pointer(&anchor))
	tm := p.topTeamFor(ss, hi, n)
	defer p.topEpilogue(ss, &hi, tm, n)
	p.runTeam(tm, micro)
	// The first regions of a goroutine typically grow (copy) its stack, which
	// moves its home shard; rehashing after the join caches the team where
	// this goroutine's next fork will look for it.
	hi = ss.homeIndex(unsafe.Pointer(&anchor))
}

// forkEpilogue reinstalls a joined nested/league team into its cache slot
// and releases its budget grant. Runs deferred, panic path included.
func (p *Pool) forkEpilogue(slot *atomic.Pointer[Team], tm *Team, granted int) {
	p.reinstall(slot, tm)
	p.budget.release(granted)
}

// topEpilogue is forkEpilogue for top-level teams, which reinstall through
// the shard table at the home index as of the join (*hi).
func (p *Pool) topEpilogue(ss *shardSet, hi *uintptr, tm *Team, granted int) {
	p.reinstallTop(ss, *hi, tm)
	p.budget.release(granted)
}

// childSlot maps a forking member and resolved team size to the parent's
// nested-cache slot index.
func childSlot(ptid, n int) int {
	i := 2 * ptid
	if n == 1 {
		i++
	}
	return i
}

// LeagueSize returns the league size Teams would use for a request of n,
// applying thread-limit accounting (league masters are pool workers and
// count against thread-limit-var like any other thread).
func (p *Pool) LeagueSize(n int) int {
	if n < 1 {
		n = 1
	}
	if lim := p.ThreadLimitVar(); n > lim {
		n = lim
	}
	return n
}

// League runs body(tm, member) for member 0..n-1, member 0 on the caller and
// the rest on pool workers, and joins — the execution substrate of the teams
// construct. League masters are ordinary pool workers rather than raw
// goroutines, so leagues inherit hot-team reuse: the league team is cached
// in its own slot, separate from the fork hot team, and revived on the next
// same-size league. League membership is not a parallel region: the team's
// level stays 0, so parallel regions forked inside a league member nest as
// top-level regions, matching omp_get_level semantics under teams — and by
// forking them via ForkFrom(tm, member, ...) each league member keeps its
// own nested hot team.
func (p *Pool) League(n int, body func(tm *Team, member int)) {
	n = p.admitTeam(p.LeagueSize(n))
	tm := p.teamFor(&p.hotLeague, nil, n, 0, 0)
	defer p.forkEpilogue(&p.hotLeague, tm, n)
	p.runTeam(tm, body)
}

// teamFor returns a ready-to-dispatch team of size n forking from parent,
// reusing the cached team in slot when its shape (size, barrier kind, wait
// policy) still matches — the hot-team cache for nested-child and league
// slots (top-level forks go through the shard table; see topTeamFor). A
// mismatched cached team (different fork size, ICV change, barrier-kind
// change) is dismantled and a cold team is built in its place.
func (p *Pool) teamFor(slot *atomic.Pointer[Team], parent *Team, n, level, activeLevel int) *Team {
	if tm := slot.Swap(nil); tm != nil {
		if p.matchesShape(tm, n) {
			tm.reset()
			return tm
		}
		p.dismantle(tm)
	}
	return p.buildTeam(parent, n, level, activeLevel)
}

// buildTeam constructs a cold team, binding n-1 workers to its slots.
func (p *Pool) buildTeam(parent *Team, n, level, activeLevel int) *Team {
	refreshProcs()
	tm := &Team{
		pool:        p,
		parent:      parent,
		n:           n,
		level:       level,
		activeLevel: activeLevel,
		barKind:     p.barrierKind,
		waitPolicy:  p.icvs.Wait,
		tasks:       task.NewPool(n),
		gtids:       make([]int, n),
		ctxs:        make([]any, n),
		children:    make([]atomic.Pointer[Team], 2*n),
		partials:    make([]partialSlot, 2*n),
	}
	tm.ws.init()
	tm.tasks.SetGTIDs(tm.gtids)
	tm.tasks.SetExec(p.taskExec)
	tm.tasks.SetOwner(tm)
	tm.bar = barrier.New(p.barrierKind, n, p.icvs.Wait)
	if n > 1 {
		tm.workers = make([]*worker, n-1)
		// Acquire in reverse slot order: dismantle releases workers in
		// slot order and acquire pops LIFO, so shrink/grow cycles rebind
		// each tid to the same worker — the hot-team property that makes
		// threadprivate data stick to team slots.
		for i := len(tm.workers) - 1; i >= 0; i-- {
			w := p.acquire()
			w.door.team = tm
			w.door.tid = i + 1
			tm.workers[i] = w
			tm.gtids[i+1] = w.gtid
		}
	}
	return tm
}

// reset revives a cached team for its next region: cancellation, the single
// counter and the worksharing ring are cleared in place; barrier, reduction
// slots, task pool, gtids, worker bindings and member contexts carry over
// untouched. The GOMAXPROCS spin caches are deliberately NOT refreshed here
// — unconditional stores to shared globals would bounce cache lines between
// concurrently forking masters on the hot path; a GOMAXPROCS change is
// picked up at the next cold team build.
func (tm *Team) reset() {
	if tm.cancelled.Load() {
		tm.cancelled.Store(false)
	}
	// rethrow cleared panicVal before unwinding, so it is non-nil here only
	// if a future path caches a team without joining through rethrow; the
	// load-then-store keeps the hot path free of an unconditional atomic
	// pointer store (and its write barrier).
	if tm.panicVal.Load() != nil {
		tm.panicVal.Store(nil)
	}
	// Member single counters restart at 1 each region; every member has
	// passed its last single before the join, so nothing races this store.
	if tm.singles.Load() != 0 {
		tm.singles.Store(0)
	}
	tm.ws.reset()
}

// invoke runs the region body for member tid, containing any panic it
// throws: the first panic value is recorded on the team and the region is
// cancelled so cancellation-aware waits (ordered turns, doacross sinks)
// in sibling members unstick, then the member proceeds to the region-end
// barrier as if the body had returned. The master rethrows the recorded
// panic after the join (runTeam), so a panicking request handler unwinds
// on its own goroutine with the team fully joined, reusable, and its
// thread-budget grant released by the fork epilogue — one tenant's panic
// never poisons the pool the other tenants are being served from.
func (tm *Team) invoke(tid int) { tm.invokeMicro(tid, tm.micro) }

// invokeMicro is invoke with the microtask passed explicitly, so the
// serialised fork path can skip publishing it on the team (workers read
// tm.micro; a team of one has no workers).
func (tm *Team) invokeMicro(tid int, micro func(tm *Team, tid int)) {
	defer func() {
		if r := recover(); r != nil {
			tm.panicVal.CompareAndSwap(nil, &regionPanic{val: r})
			tm.cancelled.Store(true)
		}
	}()
	micro(tm, tid)
}

// rethrow re-panics on the master with the first region-body panic, if any.
// Called only after the join, when every member has arrived.
func (tm *Team) rethrow() {
	if pv := tm.panicVal.Load(); pv != nil {
		tm.panicVal.Store(nil)
		panic(pv.val)
	}
}

// runTeam dispatches micro to every member and joins via the region-end
// barrier. The previous region's workers need not have finished their
// barrier *exit* when their doors are bumped again: the door epoch is a
// monotonic level each worker compares against its own cycle counter, so the
// release is never lost, and a cyclic barrier tolerates a new phase starting
// while a slow exiter drains the previous one.
func (p *Pool) runTeam(tm *Team, micro func(tm *Team, tid int)) {
	if teamGuardEnabled && tm.running.Add(1) != 1 {
		panic("kmp: team claimed by two forkers (hot-team cache invariant broken)")
	}
	if tm.n == 1 {
		// Serialised region: run inline, no workers involved — and no need
		// to publish the microtask (or pay its write barriers) on the team.
		tm.invokeMicro(0, micro)
		tm.tasks.Quiesce(0)
	} else {
		tm.micro = micro
		for _, w := range tm.workers {
			w.release()
		}
		tm.invoke(0)
		tm.Barrier(0)
		tm.micro = nil
	}
	if teamGuardEnabled {
		tm.running.Add(-1)
	}
	tm.rethrow()
}

// reinstall offers the joined team back to its cache slot; if another fork
// cached a team there meanwhile, this one is dismantled instead.
func (p *Pool) reinstall(slot *atomic.Pointer[Team], tm *Team) {
	if !slot.CompareAndSwap(nil, tm) {
		p.dismantle(tm)
	}
}

// dismantle retires a team that can no longer be reused: any cached nested
// teams go first, then each worker is waited quiescent, unbound and parked
// on the free list in slot order (so a later acquire pops them back into the
// same slots).
func (p *Pool) dismantle(tm *Team) {
	for i := range tm.children {
		if child := tm.children[i].Swap(nil); child != nil {
			p.dismantle(child)
		}
	}
	for _, w := range tm.workers {
		w.awaitDone()
		w.door.team = nil
		p.release(w)
	}
	tm.workers = nil
}

// WaitQuiescent blocks until every worker of every cached team has fully
// retired its last dispatch cycle — including its barrier exit and any
// trace emission. Folding the join into the region-end barrier means Fork
// may return while workers are still draining that barrier; callers that
// need to observe a fully settled runtime (tests, trace collectors) wait
// here.
func (p *Pool) WaitQuiescent() {
	ss := p.shards.Load()
	for i := range ss.slots {
		s := &ss.slots[i]
		for _, slot := range [...]*atomic.Pointer[Team]{&s.parallel, &s.serial} {
			if tm := slot.Swap(nil); tm != nil {
				awaitTeamDone(tm)
				p.reinstall(slot, tm)
			}
		}
	}
	if tm := p.hotLeague.Swap(nil); tm != nil {
		awaitTeamDone(tm)
		p.reinstall(&p.hotLeague, tm)
	}
}

// awaitTeamDone waits for a team's workers (and its cached nested teams')
// to finish their last cycles.
func awaitTeamDone(tm *Team) {
	for i := range tm.children {
		if child := tm.children[i].Load(); child != nil {
			awaitTeamDone(child)
		}
	}
	for _, w := range tm.workers {
		w.awaitDone()
	}
}

// Shutdown dismantles the cached teams and stops all idle workers. Only for
// tests that count goroutines; a process normally keeps its pool for its
// lifetime, as libomp does.
func (p *Pool) Shutdown() {
	drainShards(p, p.shards.Load())
	if tm := p.hotLeague.Swap(nil); tm != nil {
		p.dismantle(tm)
	}
	p.mu.Lock()
	free := p.free
	p.free = nil
	p.mu.Unlock()
	for _, w := range free {
		w.door.stop.Store(true)
		w.release()
		p.live.Add(-1)
	}
}
