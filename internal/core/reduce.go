package core

import (
	"unsafe"

	"repro/internal/kmp"
	"repro/internal/reduction"
	"repro/internal/sched"
)

// Reductions. ReduceFor and friends are free generic functions rather than
// Thread methods because Go methods cannot carry type parameters.

// ReduceFor runs a worksharing loop over 0..n-1 in which each iteration
// folds into a reduction accumulator: the reduction clause on a loop.
// body receives the iteration index and the thread's running partial and
// returns the updated partial. Every team member receives the identical
// combined result (the value the reduction variable holds after the
// construct); combine it with the pre-loop value of the variable as in
// `sum = gomp.Combine(op, sum, result)`, or use the transformer which emits
// that code. The implicit barrier is always taken: a reduction result
// cannot be produced without one.
func ReduceFor[T reduction.Number](t *Thread, n int, op reduction.Op, body func(i int, acc T) T, opts ...ForOption) T {
	w := t.walk(int64(n), buildForConfig(opts))
	acc := reduction.Identity[T](op)
	for lo, hi, ok := w.next(); ok; lo, hi, ok = w.next() {
		for i := int(lo); i < int(hi); i++ {
			acc = body(i, acc)
		}
	}
	w.end(true) // Reduce's barrier is the loop's
	return Reduce(t, op, acc)
}

// ReduceForLoop is ReduceFor over a general canonical loop.
func ReduceForLoop[T reduction.Number](t *Thread, loop sched.Loop, op reduction.Op, body func(i int64, acc T) T, opts ...ForOption) T {
	w := t.walk(loop.TripCount(), buildForConfig(opts))
	acc := reduction.Identity[T](op)
	for lo, hi, ok := w.next(); ok; lo, hi, ok = w.next() {
		for k := lo; k < hi; k++ {
			acc = body(loop.Iteration(k), acc)
		}
	}
	w.end(true)
	return Reduce(t, op, acc)
}

// Reduce performs a team-wide reduction of one value per thread, outside a
// loop: each thread contributes v, all receive the combined result. This is
// the reduction clause on a bare parallel construct.
//
// Each member publishes v in its slot of the team's reduction slots
// (libomp's __kmpc_reduce with per-thread partials), crosses the barrier,
// and folds every slot in member order — a fixed order, so all members
// compute the same value. Consecutive reductions alternate slot parity,
// which is what lets them run back to back with one barrier each (see
// kmp.Team.ReductionSlot).
func Reduce[T reduction.Number](t *Thread, op reduction.Op, v T) T {
	if t.team == nil {
		return v
	}
	p := t.redParity
	t.redParity ^= 1
	*partial[T](t.team, p, t.tid) = v
	t.Barrier()
	acc := *partial[T](t.team, p, 0)
	for i := 1; i < t.team.N(); i++ {
		acc = reduction.Combine(op, acc, *partial[T](t.team, p, i))
	}
	return acc
}

// partial returns member tid's reduction slot of the given parity as a *T:
// every reduction.Number is at most 8 bytes wide, the width of the slot.
func partial[T reduction.Number](tm *kmp.Team, parity, tid int) *T {
	return (*T)(unsafe.Pointer(tm.ReductionSlot(parity, tid)))
}

// Combine re-exports the reduction combiner so callers can fold a reduction
// result into the original variable without importing internal packages.
func Combine[T reduction.Number](op reduction.Op, a, b T) T {
	return reduction.Combine(op, a, b)
}
