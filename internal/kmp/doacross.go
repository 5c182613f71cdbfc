package kmp

import (
	"sync/atomic"

	"repro/internal/sched"
)

// Doacross cross-iteration dependences — the runtime half of `ordered(n)`
// with `depend(sink: vec)` / `depend(source)`, modeled on libomp's
// __kmpc_doacross_{init,wait,post,fini}.
//
// A doacross loop pipelines iterations that depend on lexicographically
// earlier iterations: each iteration posts a "finished" flag when its
// ordered obligations are met, and an iteration with a depend(sink) waits
// on the flags of the iterations its sink vectors name. Unlike the ordered
// construct (one global turn that fully serialises the ordered regions),
// doacross synchronisation is point-to-point — iteration (i,j) waiting on
// (i-1,j) runs concurrently with every iteration it does not depend on —
// which is what lets stencil and LU sweeps pipeline at loop granularity
// without tasks.
//
// State lives on the worksharing entry (WSEntry), so it is recycled through
// the hot-team worksharing ring exactly like the cached loop schedulers:
// the flag vector, stride table and loop copies keep their capacity across
// constructs and are reset in place by the next tenant's DoacrossInit.

const (
	// doaLineWords spaces per-iteration flags one cache line apart (16
	// words × 4 B = 64 B) so the producer posting iteration k and a
	// consumer spinning on a neighbouring flag do not ping-pong one line —
	// but only while the iteration space is small enough that the padding
	// stays cheap. Huge spaces fall back to one packed word per iteration
	// (64 B per iteration would dwarf the data being pipelined; libomp
	// packs even tighter, one bit, at the price of an atomic OR per post).
	// The limit keeps the padded vector at 256 KiB and, with it, the
	// per-construct zeroing sweep cheap; pipelines over more iterations
	// than that are tile-granularity anyway.
	doaLineWords = 16
	doaPadLimit  = 1 << 12

	doaEmpty    = 0
	doaBuilding = 1
	doaReady    = 2
)

// DoacrossInit installs the doacross state for a worksharing construct over
// the flattened nest described by loops/trips (as computed by
// sched.NestTrips), with trip total iterations. The first arrival builds —
// reusing any capacity cached on the entry from an earlier tenant of the
// ring slot — and later arrivals wait until the state is ready, mirroring
// LoopSched. Every team member must call it before its first Wait or Post.
func (e *WSEntry) DoacrossInit(loops []sched.Loop, trips []int64, trip int64) {
	if e.doaState.Load() == doaReady {
		return
	}
	if e.doaState.CompareAndSwap(doaEmpty, doaBuilding) {
		depth := len(loops)
		e.doaLoops = append(e.doaLoops[:0], loops...)
		e.doaTrips = append(e.doaTrips[:0], trips...)
		if cap(e.doaStride) < depth {
			e.doaStride = make([]int64, depth)
		}
		e.doaStride = e.doaStride[:depth]
		// Row-major linearization, matching the nest's sequential order:
		// the innermost dimension varies fastest.
		stride := int64(1)
		for i := depth - 1; i >= 0; i-- {
			e.doaStride[i] = stride
			stride *= trips[i]
		}
		e.doaPad = 1
		if trip <= doaPadLimit {
			e.doaPad = doaLineWords
		}
		words := int(trip) * e.doaPad
		if cap(e.doaFlags) < words {
			e.doaFlags = make([]atomic.Uint32, words)
		} else {
			e.doaFlags = e.doaFlags[:words]
			for i := range e.doaFlags {
				e.doaFlags[i].Store(0)
			}
		}
		e.doaState.Store(doaReady)
		return
	}
	spinUntil(func() bool { return e.doaState.Load() == doaReady })
}

// DoacrossSink linearizes a depend(sink) iteration vector, given in
// loop-variable coordinates (outermost first), to a logical iteration
// number. in=false reports a vector that names no iteration — outside the
// space, or between iterations when the step does not divide it — which
// the spec makes vacuously satisfied (the canonical first-row
// `depend(sink: i-1,j)` case; truncating a between-iterations vector onto
// a real one could map it to the *current* iteration and self-deadlock).
func (e *WSEntry) DoacrossSink(vec []int64) (k int64, in bool) {
	if len(vec) != len(e.doaLoops) {
		panic("kmp: doacross sink vector arity does not match the ordered(n) nest depth")
	}
	for i, l := range e.doaLoops {
		off := vec[i] - l.Begin
		if off%l.Step != 0 {
			return 0, false
		}
		li := off / l.Step
		if li < 0 || li >= e.doaTrips[i] {
			return 0, false
		}
		k += li * e.doaStride[i]
	}
	return k, true
}

// DoacrossWait blocks until logical iteration k has posted, using the
// shared spin→yield policy of the worksharing waits, and polls the team's
// cancellation flag so a cancel construct cannot strand a sibling parked on
// a sink that will never post. It reports whether the dependence was
// satisfied (false means the region was cancelled).
func (e *WSEntry) DoacrossWait(k int64, tm *Team) bool {
	f := &e.doaFlags[k*int64(e.doaPad)]
	return spinUntilOrCancelled(func() bool { return f.Load() != 0 }, tm)
}

// DoacrossPost marks logical iteration k finished, releasing every sink
// wait naming it. Posting is idempotent.
func (e *WSEntry) DoacrossPost(k int64) {
	e.doaFlags[k*int64(e.doaPad)].Store(1)
}
