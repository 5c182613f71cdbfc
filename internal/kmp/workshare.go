package kmp

import (
	"runtime"
	"sync/atomic"

	"repro/internal/barrier"
	"repro/internal/icv"
	"repro/internal/sched"
)

// Worksharing construct state, for the constructs whose threads must share
// it: dynamic, guided and steal loops, ordered and doacross loops, sections
// and copyprivate. Static loops, reductions and single keep nothing here.
//
// OpenMP requires every thread of a team to encounter the same worksharing
// constructs in the same order, which lets the runtime identify "the same
// construct" by a per-thread sequence number. Construct state lives in a
// fixed ring of pre-allocated entries indexed by seq mod K — libomp's
// dispatch-buffer scheme — so the steady state needs no map, no lock and no
// allocation. Each entry carries an owner tag (the sequence number it
// currently serves): the last thread to retire a construct recycles the
// entry and advances the tag by K, handing the slot to its next tenant. A
// thread that runs ahead by a full ring of nowait constructs waits until the
// slot it needs is recycled, exactly as libomp threads wait for a free
// dispatch buffer.

// wsRingSize is the number of in-flight worksharing constructs a team
// supports before the fastest thread must wait for the slowest (libomp's
// KMP_DISPATCH_NUM_BUFFERS analog). Power of two, so seq mod K is a mask.
const wsRingSize = 8

// wsRing is a team's construct-state ring.
type wsRing struct {
	entries [wsRingSize]WSEntry
	// dirty notes that some construct retired since the last reset, i.e.
	// owner tags have advanced and need restoring before team reuse.
	dirty atomic.Bool
}

// firstOwner returns the first construct sequence number served by ring
// slot j (sequence numbers start at 1).
func firstOwner(j int) int64 {
	if j == 0 {
		return wsRingSize
	}
	return int64(j)
}

// init prepares a freshly built ring.
func (r *wsRing) init() {
	for j := range r.entries {
		r.entries[j].owner.Store(firstOwner(j))
	}
}

// reset restores the ring for team reuse: owner tags return to their
// initial numbering (thread-side sequence counters restart at 1 each
// region) and any partially retired entry is recycled. Skipped entirely
// when no construct retired since the last reset.
func (r *wsRing) reset() {
	if !r.dirty.Load() {
		return
	}
	r.dirty.Store(false)
	for j := range r.entries {
		e := &r.entries[j]
		if e.retired.Load() != 0 {
			e.recycle()
			e.retired.Store(0)
		}
		e.owner.Store(firstOwner(j))
	}
}

// WSEntry is the shared state of one worksharing construct instance.
type WSEntry struct {
	// owner is the construct sequence number this ring slot currently
	// serves; advanced by wsRingSize when the construct fully retires.
	owner atomic.Int64
	// retired counts threads finished with the construct.
	retired atomic.Int64

	// Loop scheduler state. The built scheduler is cached across recycles
	// and reset in place when the next tenant's schedule matches, so
	// steady-state loops allocate nothing.
	loopState atomic.Int32 // 0 empty, 1 building, 2 ready
	sched     sched.Scheduler
	schedDesc icv.Schedule

	// sections dispenser: next unclaimed section index.
	sections atomic.Int64
	// orderedNext is the iteration whose ordered region may run next.
	orderedNext atomic.Int64
	// copyVal broadcasts the single construct's copyprivate value (the
	// winner is picked by Team.TrySingle).
	copyVal   any
	copyReady atomic.Bool

	// Doacross state (see doacross.go): per-iteration finished flags over
	// the flattened ordered(n) nest, plus the linearization tables mapping
	// depend(sink) vectors to flag indices. Slices keep their capacity
	// across recycles, so steady-state doacross loops reuse the vector.
	doaState  atomic.Int32 // doaEmpty, doaBuilding, doaReady
	doaFlags  []atomic.Uint32
	doaLoops  []sched.Loop
	doaTrips  []int64
	doaStride []int64
	doaPad    int // words between consecutive iteration flags
}

// recycle clears per-construct state for the slot's next tenant, keeping
// the cached scheduler. Called by the last retiring thread (exclusive) or
// by team reset.
func (e *WSEntry) recycle() {
	e.loopState.Store(0)
	e.sections.Store(0)
	e.orderedNext.Store(0)
	e.copyVal = nil
	e.copyReady.Store(false)
	// Doacross flags are cleared lazily by the next tenant's DoacrossInit
	// (zeroing here would put an O(trip) sweep on every recycle); the
	// linearization tables and flag capacity are kept, like the cached
	// loop scheduler.
	e.doaState.Store(doaEmpty)
}

// LoopSched returns the construct's shared loop scheduler, building it on
// first arrival. A scheduler cached from an earlier tenant of this ring slot
// is reset in place when the schedule descriptor matches.
func (e *WSEntry) LoopSched(desc icv.Schedule, trip int64, nthreads int) sched.Scheduler {
	if e.loopState.Load() == 2 {
		return e.sched
	}
	if e.loopState.CompareAndSwap(0, 1) {
		if e.sched == nil || e.schedDesc != desc || !e.sched.Reset(trip, nthreads) {
			e.sched = sched.New(desc, trip, nthreads)
			e.schedDesc = desc
		}
		e.loopState.Store(2)
		return e.sched
	}
	spinUntil(func() bool { return e.loopState.Load() == 2 })
	return e.sched
}

// NextSection returns the next unexecuted section index, for a sections
// construct with total sections; ok=false when all are claimed.
func (e *WSEntry) NextSection(total int) (int, bool) {
	idx := int(e.sections.Add(1) - 1)
	return idx, idx < total
}

// Cached GOMAXPROCS-derived spin factors. Re-reading GOMAXPROCS on every
// wait entry puts a runtime call on the hot path, so the values are cached
// package-wide and refreshed on cold team builds only (which also refreshes
// the barrier package's cache — see barrier.RefreshProcs); steady-state
// forks leave the globals read-only.
var (
	yieldEveryCached atomic.Int32
	doorSpinsCached  atomic.Int32
)

func init() { refreshProcs() }

// refreshProcs re-derives the cached spin factors from GOMAXPROCS.
func refreshProcs() {
	ye, ds := int32(64), int32(4096)
	if runtime.GOMAXPROCS(0) == 1 {
		// Spinning starves the goroutine being waited on: yield every poll
		// and skip the door spin stage entirely.
		ye, ds = 1, 0
	}
	yieldEveryCached.Store(ye)
	doorSpinsCached.Store(ds)
	barrier.RefreshProcs()
}

// spinYieldEvery returns how many polls to make between scheduler yields.
func spinYieldEvery() int { return int(yieldEveryCached.Load()) }

// spinUntil polls cond, yielding to the scheduler every spinYieldEvery
// polls — the shared short-wait policy of the worksharing constructs
// (these waits are bounded by teammates' progress through the same
// construct, so unlike the door wait they never escalate to sleeping).
func spinUntil(cond func() bool) {
	yieldEvery := spinYieldEvery()
	for spins := 1; !cond(); spins++ {
		if spins%yieldEvery == 0 {
			runtime.Gosched()
		}
	}
}

// spinUntilOrCancelled is spinUntil for waits that another thread's
// progress might never satisfy once the region is cancelled (ordered
// turns, doacross sinks): it additionally polls tm's cancellation flag
// (when tm is non-nil) and reports whether cond won (false = cancelled).
func spinUntilOrCancelled(cond func() bool, tm *Team) bool {
	yieldEvery := spinYieldEvery()
	for spins := 1; ; spins++ {
		if cond() {
			return true
		}
		if tm != nil && tm.Cancelled() {
			return false
		}
		if spins%yieldEvery == 0 {
			runtime.Gosched()
		}
	}
}

// activeDoorSpins returns the spin budget of a worker's door wait.
func activeDoorSpins() int { return int(doorSpinsCached.Load()) }

// WaitOrderedTurn blocks until iteration k's ordered region may execute,
// polling tm's cancellation flag (when tm is non-nil) so a cancel construct
// cannot strand a sibling parked on a turn that will never come: a
// cancelling thread abandons its remaining iterations without finishing
// their ordered slots, so without the poll a waiter would spin forever. It
// reports whether the turn was acquired (false means cancelled).
func (e *WSEntry) WaitOrderedTurn(k int64, tm *Team) bool {
	return spinUntilOrCancelled(func() bool { return e.orderedNext.Load() == k }, tm)
}

// FinishOrdered marks iteration k's ordered obligations complete, allowing
// iteration k+1 to enter its ordered region.
func (e *WSEntry) FinishOrdered(k int64) { e.orderedNext.Store(k + 1) }

// SetCopyPrivate publishes the single-winner's value for copyprivate.
func (e *WSEntry) SetCopyPrivate(v any) {
	e.copyVal = v
	e.copyReady.Store(true)
}

// CopyPrivate returns the published value, spinning until it is available.
// Callers must only invoke it when the construct has a copyprivate clause
// (so the winner is guaranteed to publish).
func (e *WSEntry) CopyPrivate() any {
	spinUntil(e.copyReady.Load)
	return e.copyVal
}

// Construct returns the shared entry for construct sequence number seq,
// waiting (nowait loops only) until the ring slot's previous tenant has
// fully retired.
func (t *Team) Construct(seq int64) *WSEntry {
	e := &t.ws.entries[int(seq&(wsRingSize-1))]
	if e.owner.Load() == seq {
		return e
	}
	spinUntil(func() bool { return e.owner.Load() == seq })
	return e
}

// Retire records that one thread has finished with construct seq; the last
// thread recycles the entry and hands the ring slot to its next tenant.
// Sequence numbers are never reused within a region, so the hand-off cannot
// race with a late arrival of the same construct. Every Construct must be
// matched by a Retire on every team member before the region ends (all core
// constructs do this), or the slot would stay blocked for its next tenant.
func (t *Team) Retire(seq int64, e *WSEntry) {
	if e.retired.Add(1) < int64(t.n) {
		return
	}
	t.ws.dirty.Store(true)
	e.recycle()
	e.retired.Store(0)
	e.owner.Store(seq + wsRingSize)
}

// LiveConstructs reports the number of construct entries some thread has
// retired from but whose slowest thread is still inside (leak/liveness test
// hook; 0 means the ring is quiescent).
func (t *Team) LiveConstructs() int {
	live := 0
	for j := range t.ws.entries {
		if t.ws.entries[j].retired.Load() != 0 {
			live++
		}
	}
	return live
}
