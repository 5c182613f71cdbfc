package core

import (
	"fmt"

	"repro/internal/icv"
	"repro/internal/kmp"
	"repro/internal/sched"
	"repro/internal/trace"
)

// ForOption configures a worksharing loop (the clauses of `omp for`). An
// option takes and returns the config by value: a pointer handed to an
// opaque func would force the config to the heap, so a loop with clauses
// would allocate on every call.
type ForOption func(forConfig) forConfig

type forConfig struct {
	sched    icv.Schedule
	hasSched bool
	nowait   bool
	ordered  bool
}

// Schedule is the schedule clause. chunk 0 means unspecified.
func Schedule(kind icv.ScheduleKind, chunk int) ForOption {
	return func(c forConfig) forConfig {
		c.sched, c.hasSched = icv.Schedule{Kind: kind, Chunk: chunk}, true
		return c
	}
}

// NoWait is the nowait clause: skip the implicit barrier at loop end.
func NoWait() ForOption {
	return func(c forConfig) forConfig { c.nowait = true; return c }
}

func buildForConfig(opts []ForOption) forConfig {
	var cfg forConfig
	for _, o := range opts {
		cfg = o(cfg)
	}
	if !cfg.hasSched {
		cfg.sched = icv.Schedule{Kind: icv.StaticSched}
	}
	return cfg
}

// For is the worksharing loop directive over iterations 0..n-1: the team
// splits the iteration space according to the schedule clause, and an
// implicit barrier follows unless nowait is given. Must be called by every
// member of the team (the OpenMP worksharing contract).
func (t *Thread) For(n int, body func(i int), opts ...ForOption) {
	cfg := buildForConfig(opts)
	w := t.walk(int64(n), cfg)
	for lo, hi, ok := w.next(); ok; lo, hi, ok = w.next() {
		for i := int(lo); i < int(hi); i++ {
			body(i)
		}
	}
	w.end(cfg.nowait)
}

// ForLoop is For generalised to any canonical loop (begin/end/step, step may
// be negative) — the form the source transformer lowers arbitrary Go for
// statements into.
func (t *Thread) ForLoop(loop sched.Loop, body func(i int64), opts ...ForOption) {
	cfg := buildForConfig(opts)
	w := t.walk(loop.TripCount(), cfg)
	for lo, hi, ok := w.next(); ok; lo, hi, ok = w.next() {
		for k := lo; k < hi; k++ {
			body(loop.Iteration(k))
		}
	}
	w.end(cfg.nowait)
}

// ForNest is the collapse(n) worksharing loop: the perfectly nested
// canonical loops (outermost first) are flattened into one logical
// iteration space which the team splits according to the schedule clause,
// so inner-loop iterations load-balance across threads even when the outer
// loop is short or skewed. The body receives the per-level loop-variable
// values, outermost first; ix is reused across iterations on the same
// thread and must not be retained or mutated.
func (t *Thread) ForNest(loops []sched.Loop, body func(ix []int64), opts ...ForOption) {
	cfg := buildForConfig(opts)
	trips, ix, base := t.nestFrame(len(loops))
	w := t.walk(sched.NestTrips(loops, trips), cfg)
	for lo, hi, ok := w.next(); ok; lo, hi, ok = w.next() {
		for k := lo; k < hi; k++ {
			sched.DelinearizeNest(loops, trips, k, ix)
			body(ix)
		}
	}
	w.end(cfg.nowait)
	t.nestBase = base
}

// nestFrame claims a trips+ix frame of the given depth from the thread's
// scratch stack, returning the two slices and the stack base to restore
// once the loop's body can no longer run. Stacking frames (rather than
// reusing offset 0, as an earlier version did) keeps a nested collapsed
// loop on the same Thread — e.g. inside a serialized inner region — from
// clobbering the outer loop's live trips/ix; growing reallocates without
// copying, because outer frames keep their slices into the old array.
func (t *Thread) nestFrame(depth int) (trips, ix []int64, base int) {
	base = t.nestBase
	need := base + 2*depth
	if cap(t.nestScratch) < need {
		t.nestScratch = make([]int64, need)
	}
	t.nestScratch = t.nestScratch[:cap(t.nestScratch)]
	trips = t.nestScratch[base : base+depth]
	ix = t.nestScratch[base+depth : need]
	t.nestBase = need
	return trips, ix, base
}

// ForChunks is For with chunk granularity: the body receives whole chunk
// ranges [lo, hi) instead of single iterations, letting hot loops run as
// tight range loops without a closure call per iteration. This matches the
// code a C compiler generates for `omp for` (the loop body inlined into the
// per-chunk bound loop) and is the recommended form for very fine-grained
// iterations.
func (t *Thread) ForChunks(n int, body func(lo, hi int), opts ...ForOption) {
	cfg := buildForConfig(opts)
	w := t.walk(int64(n), cfg)
	for lo, hi, ok := w.next(); ok; lo, hi, ok = w.next() {
		body(int(lo), int(hi))
	}
	w.end(cfg.nowait)
}

// OrderedCtx is the per-iteration handle for ordered regions inside a
// ForOrdered loop. The loop re-arms one recycled ctx per thread, so the
// handle must not be retained past the iteration's body.
type OrderedCtx struct {
	e        *kmp.WSEntry
	tm       *kmp.Team
	k        int64
	consumed bool
}

// arm re-points the recycled ctx at iteration k of the construct.
func (o *OrderedCtx) arm(e *kmp.WSEntry, tm *kmp.Team, k int64) {
	o.e, o.tm, o.k, o.consumed = e, tm, k, false
}

// Do executes fn as the iteration's ordered region: regions run in exact
// iteration order across the team. At most one Do per iteration. When the
// region has been cancelled the turn wait gives up and fn is skipped (the
// thread is on its way to the region-end barrier anyway).
func (o *OrderedCtx) Do(fn func()) {
	if o.consumed {
		panic("core: multiple Ordered regions in one iteration")
	}
	o.consumed = true
	if o.e == nil { // sequential
		fn()
		return
	}
	if !o.e.WaitOrderedTurn(o.k, o.tm) {
		return // cancelled while waiting
	}
	fn()
	o.e.FinishOrdered(o.k)
}

// ForOrdered is For with the ordered clause: the body receives an OrderedCtx
// whose Do runs in iteration order. Iterations that skip Do still retire
// their ordered slot when the body returns (conservatively, in order), so a
// data-dependent ordered region cannot deadlock the loop.
func (t *Thread) ForOrdered(n int, body func(i int, ord *OrderedCtx), opts ...ForOption) {
	cfg := buildForConfig(opts)
	cfg.ordered = true
	w := t.walk(int64(n), cfg)
	// The recycled ctx is saved and restored across the loop so an ordered
	// loop nested inside another's body on the same Thread (the serialized
	// inner-region case nestFrame also guards against) cannot clobber the
	// outer iteration's live ctx state.
	ord := &t.ordScratch
	saved := *ord
	for lo, hi, ok := w.next(); ok; lo, hi, ok = w.next() {
		for k := lo; k < hi; k++ {
			// An ordered iteration can park on its turn, so a cancelling
			// sibling must be noticed before entering the next wait.
			if k > lo && t.CancellationPoint() {
				break
			}
			ord.arm(w.e, t.team, k)
			body(int(k), ord)
			if ord.consumed || w.e == nil {
				continue
			}
			// The iteration executed no ordered region; release its turn so
			// successors may proceed — unless cancellation already broke the
			// turn chain, in which case every waiter gives up on its own.
			if w.e.WaitOrderedTurn(k, t.team) {
				w.e.FinishOrdered(k)
			}
		}
	}
	w.end(cfg.nowait)
	*ord = saved
}

// chunkWalk is one thread's walk over its chunks of a worksharing loop.
// Under a static schedule the thread computes its own chunks from the trip
// count, team size, tid and chunk size — libomp's __kmpc_for_static_init —
// and touches no shared state; every other schedule, and any ordered loop,
// takes chunks from the construct's shared scheduler on the worksharing
// ring. In a sequential context the whole loop is one chunk. Callers run
// each chunk as a direct loop, so the user body is called once per
// iteration with no closure in between.
type chunkWalk struct {
	t     *Thread
	e     *kmp.WSEntry    // ring entry; nil for a static or sequential walk
	s     sched.Scheduler // e's shared scheduler
	seq   int64
	trip  int64
	chunk int64 // static: the chunk size, 0 for one block per thread
	taken int64 // chunks handed out so far
}

// walk starts the calling thread's part of a loop of trip iterations. The
// static kinds are those sched.New builds static schedulers for, and the
// walk deals their chunks to the same threads (the spec's guarantee that
// the same trip count and team size give every thread the same iterations).
func (t *Thread) walk(trip int64, cfg forConfig) chunkWalk {
	w := chunkWalk{t: t, trip: trip}
	if t.team == nil {
		return w
	}
	s := sched.Resolve(cfg.sched, t.rt.pool.ICVs())
	if !cfg.ordered && (s.Kind == icv.StaticSched || s.Kind == icv.AutoSched) {
		w.chunk = int64(max(s.Chunk, 0))
		return w
	}
	w.seq, w.e = t.construct()
	w.s = w.e.LoopSched(s, trip, t.team.N())
	return w
}

// next returns the thread's next chunk [lo, hi) of logical iterations, or
// ok=false when it has none left. Every chunk boundary is a cancellation
// point, and every chunk handed out emits one EvLoopChunk.
func (w *chunkWalk) next() (lo, hi int64, ok bool) {
	t := w.t
	if t.team == nil {
		if w.taken > 0 || w.trip <= 0 {
			return 0, 0, false
		}
		w.taken++
		return 0, w.trip, true
	}
	if t.team.Cancelled() {
		return 0, 0, false
	}
	switch {
	case w.s != nil:
		c, more := w.s.Next(t.tid)
		if !more {
			return 0, 0, false
		}
		lo, hi = c.Begin, c.End
	case w.chunk == 0:
		if w.taken > 0 {
			return 0, 0, false
		}
		lo, hi = sched.StaticBlockBounds(w.trip, t.team.N(), t.tid)
	default:
		lo, hi = staticChunk(w.trip, w.chunk, t.team.N(), t.tid, w.taken)
	}
	w.taken++
	if lo >= hi {
		return 0, 0, false
	}
	if trace.Enabled() {
		trace.Emit(trace.EvLoopChunk, t.GlobalID(), hi-lo)
	}
	return lo, hi, true
}

// staticChunk returns the j-th chunk of thread tid under schedule(static,
// chunk): threads take chunks round-robin, tid, tid+n, tid+2n, ..., as
// sched's static chunked scheduler deals them. Past the end the range is
// empty.
func staticChunk(trip, chunk int64, nthreads, tid int, j int64) (lo, hi int64) {
	lo = (int64(tid) + j*int64(nthreads)) * chunk
	if lo >= trip {
		return trip, trip
	}
	return lo, min(lo+chunk, trip)
}

// end closes the thread's part of the loop: the implicit barrier unless
// nowait, then retirement of the ring entry if the loop used one.
func (w *chunkWalk) end(nowait bool) {
	if !nowait {
		w.t.Barrier()
	}
	if w.e != nil {
		w.t.team.Retire(w.seq, w.e)
	}
}

// ParallelFor is the combined `omp parallel for` construct.
func (r *Runtime) ParallelFor(n int, body func(i int, t *Thread), opts ...any) {
	parOpts, forOpts := splitOpts(opts)
	r.Parallel(func(t *Thread) {
		t.For(n, func(i int) { body(i, t) }, forOpts...)
	}, parOpts...)
}

// splitOpts separates mixed ParOption/ForOption lists for the combined
// constructs; anything else panics loudly at the call site, naming the
// offending argument and its type so the bad value is easy to find.
func splitOpts(opts []any) ([]ParOption, []ForOption) {
	var ps []ParOption
	var fs []ForOption
	for i, o := range opts {
		switch v := o.(type) {
		case ParOption:
			ps = append(ps, v)
		case ForOption:
			fs = append(fs, v)
		default:
			panic(fmt.Sprintf("gomp: option %d has type %T; combined constructs accept only gomp.ParOption (NumThreads, If) or gomp.ForOption (Schedule, NoWait) values", i, o))
		}
	}
	return ps, fs
}
