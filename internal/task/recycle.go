package task

import (
	"sync"
	"sync/atomic"
)

// Per-thread free lists recycling Units and dephash states — the analog of
// libomp's fast task allocator (kmp_tasking's per-thread task free lists).
// Each cache belongs to exactly one pool thread: only thread tid pushes to
// or pops from caches[tid], so no lock is needed. A Unit freed by whichever
// thread retired it goes to that thread's cache first.
//
// Units do not stay where they retire. When one thread spawns and another
// retires (a producer/consumer region such as the wavefront, whose master
// spawns every task and whose other members run them from the barrier),
// the spawner's list runs dry and the retirer's only grows. So a list that
// grows past 2*xferBatch hands xferBatch units to the pool's transfer list,
// and a thread whose list is empty takes a batch from there before it falls
// back to new(Unit) — libomp returns blocks freed by another thread to
// their owner the same way (___kmp_fast_free). An atomic count gates the
// empty-list check, so the common path takes no lock.
//
// Reclamation safety rests on the epoch counter. A Unit's epoch is even
// while the incarnation is live and odd once it is retired; both retiring
// and reusing bump it, so every incarnation has a distinct epoch value.
// Anything that might outlive the incarnation holds a (pointer, epoch)
// pair and treats a mismatch as "that task is long gone":
//
//   - Handle.Done reports done on mismatch (the task completed before the
//     unit was recycled — completion is the only road to the free list);
//   - the dephash's depRef entries are validated under the predecessor's
//     dep.mu before an edge is added, and a dependent task's epoch is
//     retired under that same mu (in releaseSuccessors), so "epoch still
//     matches" and "successor list still live" are one atomic fact.
//
// Allocation falls back to new(Unit) whenever both lists are empty, so
// correctness never depends on recycling; the lists are capped so a burst
// of a million tasks does not pin a million Units forever.

// maxFree caps each per-thread depState list and the transfer list;
// overflow is dropped to the GC. A thread's unit list never gets near it:
// past 2*xferBatch it hands a batch to the transfer list.
const maxFree = 1 << 14

// xferBatch is the number of units moved to or from the transfer list at a
// time. A small batch moves units between threads that both spawn and run
// (the spawn trees) too often: on two threads, n-queens ran 6-8 % slower
// with batches of 64 than of 512.
const xferBatch = 512

// xferList is the pool's transfer list: units that retired on a thread with
// a full list, waiting for a thread whose list ran dry. n mirrors
// len(units) so an empty list is seen without the lock.
type xferList struct {
	n     atomic.Int64
	mu    sync.Mutex
	units []*Unit
}

// unitCache is one thread's free lists, padded so neighbouring threads'
// caches do not share a cache line.
type unitCache struct {
	free    []*Unit
	depFree []*depState
	_       [16]byte
}

// allocUnit returns a live Unit owned by thread tid: recycled if the cache
// has one, freshly allocated otherwise. Scheduling fields are zeroed; the
// caller fills in the spawn-time state.
func (p *Pool) allocUnit(tid int) *Unit {
	c := &p.caches[tid]
	if len(c.free) == 0 && p.xfer.n.Load() > 0 {
		p.xfer.take(c)
	}
	if n := len(c.free); n > 0 {
		u := c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
		u.epoch.Add(1) // odd (retired) -> even (live): a new incarnation
		u.done.Store(false)
		u.life.Store(1)
		return u
	}
	u := &Unit{pool: p}
	u.life.Store(1)
	return u
}

// free retires u's incarnation and recycles it into thread tid's cache.
// Called exactly once per incarnation, by whichever thread drops u.life to
// zero — at that point the body has run, every child has completed, and no
// queue or successor list can still name this incarnation.
func (p *Pool) free(tid int, u *Unit) {
	if u.epoch.Load()&1 == 0 {
		// Tasks with depend clauses were already retired under dep.mu in
		// releaseSuccessors; plain tasks retire here.
		u.epoch.Add(1)
	}
	u.fn = nil
	u.user = nil
	u.parent = nil
	u.group = nil
	u.hasDeps = false
	u.loop = false
	if u.depmap != nil {
		p.recycleMap(tid, u.depmap)
	}
	c := &p.caches[tid]
	c.free = append(c.free, u)
	if len(c.free) > 2*xferBatch {
		p.xfer.give(c)
	}
}

// give moves xferBatch units from the top of c's free list to the transfer
// list, or drops them to the GC when the transfer list is full.
func (x *xferList) give(c *unitCache) {
	n := len(c.free)
	batch := c.free[n-xferBatch:]
	x.mu.Lock()
	if len(x.units) < maxFree {
		x.units = append(x.units, batch...)
		x.n.Store(int64(len(x.units)))
	}
	x.mu.Unlock()
	clear(batch)
	c.free = c.free[:n-xferBatch]
}

// take moves up to xferBatch units from the transfer list to c's free list.
func (x *xferList) take(c *unitCache) {
	x.mu.Lock()
	n := len(x.units)
	batch := x.units[max(n-xferBatch, 0):]
	c.free = append(c.free, batch...)
	clear(batch)
	x.units = x.units[:n-len(batch)]
	x.n.Store(int64(len(x.units)))
	x.mu.Unlock()
}

// allocState returns a depState for thread tid's dephash registration.
func (p *Pool) allocState(tid int) *depState {
	c := &p.caches[tid]
	if n := len(c.depFree); n > 0 {
		st := c.depFree[n-1]
		c.depFree[n-1] = nil
		c.depFree = c.depFree[:n-1]
		return st
	}
	return &depState{}
}

// recycleMap drains a completed parent's dephash into tid's depState free
// list and resets the table for the next incarnation. Safe because only the
// parent task registers in its own dephash and the parent has completed.
// The table keeps its size, so a table that registered nothing since its
// last drain is skipped rather than scanned: a kept root whose regions
// spawn no depend-tasks must not sweep a wavefront-sized table each time.
func (p *Pool) recycleMap(tid int, m *depMap) {
	if m.used == 0 {
		return
	}
	c := &p.caches[tid]
	for i := range m.slots {
		s := &m.slots[i]
		if s.key == 0 {
			continue
		}
		s.key = 0
		st := s.st
		s.st = nil
		st.lastOut = depRef{}
		st.lastIns = st.lastIns[:0]
		if len(c.depFree) < maxFree {
			c.depFree = append(c.depFree, st)
		}
	}
	m.used = 0
}
