package kmp

import (
	"runtime"
	"sync/atomic"

	"repro/internal/barrier"
)

// Thread-budget arbiter.
//
// A serving process firing parallel regions from thousands of goroutines
// cannot let every region claim its full requested team: with a 4-thread
// default and 1000 concurrent tenants that is 4000 runnable workers on a
// handful of cores — oversubscription that turns every barrier spin into
// stolen cycles. The arbiter charges every active region's extra threads
// (its workers; the forking goroutine is the tenant's own) against one
// pool-wide budget of thread-limit-var - 1 and resolves each fork through a
// degradation ladder:
//
//  1. Full grant. Budget is available: the region gets its requested size.
//  2. Shrink. dyn-var (OMP_DYNAMIC) is set: the region immediately gets
//     1 + whatever budget remains, the spec's "dynamic adjustment of the
//     number of threads".
//  3. Bounded wait. dyn-var is clear: the forker spins, yields, then
//     sleeps (~½ ms total) for the full request, since a non-dynamic
//     program was promised its team size if at all possible.
//  4. Degrade. The wait expires: take what is available anyway, down to a
//     serialised team of one.
//
// The ladder never blocks indefinitely, so nested forks that wait while
// their ancestors hold budget cannot deadlock: rung 4 always grants at
// least a team of one, which always makes progress. Grants are released
// exactly at join — on the panic path too, via the fork epilogue — so after
// any interleaving the budget returns to its initial value; cached hot
// teams hold their (parked) workers but no budget, which is what lets a
// serving pool cache aggressively while bounding *running* threads.
type arbiter struct {
	// used is the number of extra (non-master) threads currently granted
	// to in-flight regions.
	used atomic.Int64
	// shrunk counts regions granted fewer threads than requested;
	// serialized counts regions degraded all the way to a team of one.
	shrunk     atomic.Int64
	serialized atomic.Int64
}

// Admission-wait ladder shape: spin, then yield, then sleep with the shared
// backoff (≈ ½ ms of sleeping). Short on purpose — a serving region is
// better off running shrunk than parked.
const (
	admitSpins  = 256
	admitYields = 64
	admitSleeps = 8
)

// admit resolves a fork's requested team size n (> 1) against the budget
// and returns the granted size in [1, n]. limit is the budget ceiling in
// extra threads; dyn selects immediate shrink over bounded waiting.
func (a *arbiter) admit(n int, limit int64, dyn bool) int {
	want := int64(n - 1)
	if a.tryTake(want, limit) {
		return n
	}
	if !dyn {
		// Rung 3: a non-dynamic program asked for exactly n; wait a bounded
		// while for siblings to release before shrinking it.
		for i := 0; i < admitSpins; i++ {
			if a.tryTake(want, limit) {
				return n
			}
		}
		for i := 0; i < admitYields; i++ {
			runtime.Gosched()
			if a.tryTake(want, limit) {
				return n
			}
		}
		for i := 0; i < admitSleeps; i++ {
			barrier.SleepBackoff(i)
			if a.tryTake(want, limit) {
				return n
			}
		}
	}
	got := a.takeUpTo(want, limit)
	a.shrunk.Add(1)
	if got == 0 {
		a.serialized.Add(1)
	}
	return int(got) + 1
}

// tryTake reserves exactly want extra threads, or nothing.
func (a *arbiter) tryTake(want, limit int64) bool {
	for {
		cur := a.used.Load()
		if cur+want > limit {
			return false
		}
		if a.used.CompareAndSwap(cur, cur+want) {
			return true
		}
	}
}

// takeUpTo reserves as many of want extra threads as the budget allows,
// possibly zero.
func (a *arbiter) takeUpTo(want, limit int64) int64 {
	for {
		cur := a.used.Load()
		avail := limit - cur
		if avail <= 0 {
			return 0
		}
		take := want
		if take > avail {
			take = avail
		}
		if a.used.CompareAndSwap(cur, cur+take) {
			return take
		}
	}
}

// release returns a granted region's extra threads to the budget.
func (a *arbiter) release(granted int) {
	if granted > 1 {
		a.used.Add(-int64(granted - 1))
	}
}

// admitTeam applies the arbiter to a resolved team size: serial teams are
// free (they run on the forking goroutine), larger requests are charged
// against thread-limit-var - 1 extra threads.
func (p *Pool) admitTeam(n int) int {
	if n <= 1 {
		return n
	}
	limit := int64(p.ThreadLimitVar()) - 1
	if limit < 0 {
		limit = 0
	}
	return p.budget.admit(n, limit, p.DynVar())
}

// ThreadBudgetUsed reports the extra threads currently granted to running
// regions; a quiescent pool reports 0 (leak-check hook).
func (p *Pool) ThreadBudgetUsed() int { return int(p.budget.used.Load()) }

// AdmissionStats reports how many regions were shrunk below their request
// and how many were serialised outright since pool construction.
func (p *Pool) AdmissionStats() (shrunk, serialized int64) {
	return p.budget.shrunk.Load(), p.budget.serialized.Load()
}
