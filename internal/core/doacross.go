package core

import (
	"repro/internal/icv"
	"repro/internal/kmp"
	"repro/internal/sched"
	"repro/internal/trace"
)

// ForDoacross is the doacross worksharing loop — `ordered(n)` with
// `depend(sink: vec)` / `depend(source)`, OpenMP's loop-level pipeline for
// cross-iteration dependences. The n perfectly nested canonical loops
// (outermost first) are flattened into one logical iteration space split
// according to the schedule clause, exactly as ForNest does for
// collapse(n); additionally each iteration may synchronise point-to-point
// with lexicographically earlier iterations through its DoacrossCtx:
//
//	t.ForDoacross([]sched.Loop{{0, n, 1}, {0, m, 1}}, func(ix []int64, d *core.DoacrossCtx) {
//		i, j := ix[0], ix[1]
//		d.Wait(i-1, j) // depend(sink: i-1, j)
//		d.Wait(i, j-1) // depend(sink: i, j-1)
//		cell(i, j)
//		d.Post() // depend(source)
//	})
//
// Wait blocks until the named iteration has posted (vectors outside the
// iteration space are vacuously satisfied, so boundary iterations need no
// special-casing); Post marks the current iteration finished. A body that
// returns without posting is posted conservatively by the loop, so a
// data-dependent source cannot deadlock the pipeline — the doacross analog
// of ForOrdered's auto-retired turns. Waits poll cancellation, making every
// sink a cancellation point.
//
// The schedule must be monotonic (each thread's iterations in increasing
// logical order): sink vectors name earlier iterations, so monotonicity
// plus point-to-point flags guarantee progress, while a work-stealing
// schedule could run an iteration before a same-thread predecessor it
// depends on. The nonmonotonic steal schedule is therefore rejected loudly,
// matching the directive front end's doacross×nonmonotonic diagnostic.
//
// ix and the ctx are reused across iterations on the same thread and must
// not be retained. Must be called by every member of the team.
func (t *Thread) ForDoacross(loops []sched.Loop, body func(ix []int64, d *DoacrossCtx), opts ...ForOption) {
	cfg := buildForConfig(opts)
	if cfg.nowait {
		// The spec forbids ordered+nowait; the parser diagnoses it and the
		// runtime refuses it for the same reason: sinks of a next loop
		// instance could otherwise observe a half-finished flag vector.
		panic("gomp: ForDoacross cannot honour the nowait clause (ordered and nowait are mutually exclusive)")
	}
	trips, ix, base := t.nestFrame(len(loops))
	trip := sched.NestTrips(loops, trips)
	if t.team != nil && sched.Resolve(cfg.sched, t.rt.pool.ICVs()).Kind == icv.StealSched {
		panic("gomp: ForDoacross requires a monotonic schedule; schedule(nonmonotonic:dynamic) may run an iteration before a same-thread predecessor it depends on")
	}
	// ordered(n): the sink flags live on the construct's ring entry.
	cfg.ordered = true
	w := t.walk(trip, cfg)
	// Saved/restored like ForOrdered's ctx and the nestFrame stack, so a
	// doacross loop nested inside another loop's body on the same Thread
	// cannot clobber the outer iteration's live ctx (k/posted) state.
	d := &t.doaScratch
	savedCtx := *d
	if w.e != nil && t.team.N() > 1 {
		w.e.DoacrossInit(loops, trips, trip)
		d.arm(t, w.e, len(loops))
	} else {
		// A sequential context or a team of one executes the loop in
		// ascending logical order, so program order satisfies every sink
		// (sinks name lexicographically earlier iterations): Wait and Post
		// degenerate to no-ops, as libomp's __kmpc_doacross_init skips the
		// flag protocol for single-thread teams.
		d.arm(t, nil, len(loops))
	}
	for lo, hi, ok := w.next(); ok; lo, hi, ok = w.next() {
		for k := lo; k < hi; k++ {
			if k > lo && t.CancellationPoint() {
				break
			}
			sched.DelinearizeNest(loops, trips, k, ix)
			d.k, d.posted = k, false
			body(ix, d)
			if !d.posted {
				// Conservative auto-post: the body ran no depend(source).
				d.Post()
			}
		}
	}
	w.end(false)
	*d = savedCtx
	t.nestBase = base
}

// DoacrossCtx is the per-iteration handle of a ForDoacross loop, exposing
// the standalone ordered directive's two doacross forms: Wait is
// `ordered depend(sink: vec)`, Post is `ordered depend(source)`. The loop
// re-arms one recycled ctx per thread; it must not be retained past the
// iteration's body.
type DoacrossCtx struct {
	t      *Thread
	e      *kmp.WSEntry // nil in sequential context
	depth  int
	k      int64 // current linearized iteration
	posted bool
}

// arm points the recycled ctx at a loop instance.
func (d *DoacrossCtx) arm(t *Thread, e *kmp.WSEntry, depth int) {
	d.t, d.e, d.depth = t, e, depth
	d.k, d.posted = 0, false
}

// Wait blocks until the iteration named by vec (loop-variable coordinates,
// outermost first, one value per collapsed loop) has posted its source
// flag. Vectors outside the iteration space are vacuously satisfied; a
// cancelled region releases the wait. Arity must match the nest depth.
func (d *DoacrossCtx) Wait(vec ...int64) {
	if len(vec) != d.depth {
		panic("gomp: depend(sink) vector arity does not match the doacross loop's ordered(n) depth")
	}
	if d.e == nil {
		return // sequential: program order satisfies every sink
	}
	k, in := d.e.DoacrossSink(vec)
	if !in {
		return
	}
	if trace.Enabled() {
		trace.Emit(trace.EvDoacrossWait, d.t.GlobalID(), k)
	}
	d.e.DoacrossWait(k, d.t.team)
}

// Post marks the current iteration finished, releasing every sink naming
// it. Posting is idempotent; a body that never posts is posted by the loop
// when it returns.
func (d *DoacrossCtx) Post() {
	if d.posted {
		return
	}
	d.posted = true
	if d.e == nil {
		return
	}
	if trace.Enabled() {
		trace.Emit(trace.EvDoacrossPost, d.t.GlobalID(), d.k)
	}
	d.e.DoacrossPost(d.k)
}
