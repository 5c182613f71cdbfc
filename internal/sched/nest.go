package sched

import "math"

// NestTrips fills trips[i] with loops[i]'s trip count and returns the
// overflow-checked product — the flattened collapse(n) trip count of a
// perfectly nested collection of canonical loops, outermost first. Callers
// pass a reusable trips buffer (the runtime's per-thread scratch), so it
// allocates nothing.
//
// Collapsing exists to feed schedulers: a nest whose outer loop has few
// (or badly imbalanced) iterations parallelises poorly on its own, while
// the flattened space gives the schedule clause — in particular the
// work-stealing steal schedule — trip₁·trip₂·… units to balance. The
// flattened space enumerates the nest in its sequential execution order
// (outermost loop varies slowest).
func NestTrips(loops []Loop, trips []int64) int64 {
	total := int64(1)
	for i, l := range loops {
		t := l.TripCount()
		trips[i] = t
		if t == 0 {
			total = 0
			continue
		}
		if total > math.MaxInt64/t {
			panic("sched: collapsed trip count overflows int64")
		}
		total *= t
	}
	if len(loops) == 0 {
		return 0
	}
	return total
}

// DelinearizeNest maps logical iteration k of the flattened space back to
// per-level loop-variable values (ix[0] outermost), given the trip counts
// NestTrips computed.
func DelinearizeNest(loops []Loop, trips []int64, k int64, ix []int64) {
	for i := len(loops) - 1; i >= 0; i-- {
		t := trips[i]
		ix[i] = loops[i].Iteration(k % t)
		k /= t
	}
}
