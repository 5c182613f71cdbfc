package task

import (
	"sync"
	"sync/atomic"

	"repro/internal/trace"
)

// Task dependencies — the depend(in/out/inout) clause. The design follows
// libomp's dephash: each parent task owns an open-addressed hash keyed by
// dependence address (uintptr) whose entries remember the last writer and
// the readers since that writer. Registering a new dependent task walks its
// depend list, adds edges from those remembered tasks, and the task becomes
// ready only when its predecessor count reaches zero. A completing
// predecessor releases all of its newly-ready successors in one batch: one
// queued-counter update publishes the lot, and the first unprioritised
// successor is kept back and run inline on the releasing thread, so a
// dependence chain advances without ever touching a queue.
//
// Registration is single-threaded by construction: only the parent task
// spawns its children (OpenMP dependencies order *sibling* tasks), so the
// hash itself needs no lock. The per-Unit successor list is the one point
// where the registering thread and a completing predecessor can meet, and
// it is guarded by the Unit's small mutex. Because Units are recycled, the
// dephash remembers (Unit, epoch) pairs and an edge is only added while the
// predecessor's epoch still matches — the epoch is retired under the same
// mutex, so a recycled predecessor can never collect edges meant for its
// previous incarnation.

// DepKind classifies one dependence of a task on an address.
type DepKind uint8

const (
	// DepIn is depend(in: x): the task reads x; it must wait for the last
	// writer of x.
	DepIn DepKind = iota
	// DepOut is depend(out: x): the task writes x; it must wait for the
	// last writer and every reader since.
	DepOut
	// DepInOut is depend(inout: x): read-modify-write; same ordering as
	// DepOut.
	DepInOut
)

// String returns the clause spelling of the kind.
func (k DepKind) String() string {
	switch k {
	case DepOut:
		return "out"
	case DepInOut:
		return "inout"
	default:
		return "in"
	}
}

// Dep is one dependence: an address (the identity of the storage named in
// the depend clause) and the access kind.
type Dep struct {
	Addr uintptr
	Kind DepKind
}

// depRef names one incarnation of a predecessor Unit. The epoch pins the
// incarnation: if it no longer matches, that task completed (and the Unit
// was recycled), so no edge is needed. node is the incarnation's node in
// the task graph its parent was recording (1-based), 0 outside a record.
type depRef struct {
	u     *Unit
	epoch uint64
	node  int32
}

// depState is one address's entry in the dephash: the last out/inout task
// and the in tasks that have depended on the address since.
type depState struct {
	lastOut depRef
	lastIns []depRef
}

// depMap is the dephash: an open-addressed, linearly probed table from
// dependence address to depState. It is owned and accessed exclusively by
// the thread executing the parent task, so it is unlocked. Entries are
// never deleted while the parent's region lives; when the parent is
// recycled the states are drained back to a free list (recycle.go).
type depMap struct {
	slots []depSlot
	used  int
	// rec is the task graph the parent is recording its children into,
	// nil when it records none (graph.go).
	rec *Graph
}

type depSlot struct {
	key uintptr // 0 = empty (a nil dependence address is rejected earlier)
	st  *depState
}

// lookup returns the state for key, inserting alloc() on first use.
func (m *depMap) lookup(key uintptr, alloc func() *depState) *depState {
	if m.slots == nil {
		m.slots = make([]depSlot, 16)
	}
	for {
		mask := uintptr(len(m.slots) - 1)
		i := depHash(key) & mask
		for {
			s := &m.slots[i]
			if s.key == key {
				return s.st
			}
			if s.key == 0 {
				if 4*(m.used+1) > 3*len(m.slots) {
					break // grow, then retry the probe
				}
				s.key = key
				s.st = alloc()
				m.used++
				return s.st
			}
			i = (i + 1) & mask
		}
		m.grow()
	}
}

// grow doubles the table and rehashes every entry.
func (m *depMap) grow() {
	old := m.slots
	m.slots = make([]depSlot, 2*len(old))
	mask := uintptr(len(m.slots) - 1)
	for _, s := range old {
		if s.key == 0 {
			continue
		}
		i := depHash(s.key) & mask
		for m.slots[i].key != 0 {
			i = (i + 1) & mask
		}
		m.slots[i] = s
	}
}

// depHash mixes a dependence address. Addresses share alignment and arena
// locality, so multiply by a 64-bit odd constant (Fibonacci hashing) and
// take the high bits down; the shift keeps neighbouring addresses from
// landing in neighbouring slots. The arithmetic is done in uint64 so the
// constant is legal on 32-bit targets too.
func depHash(p uintptr) uintptr {
	return uintptr(uint64(p) * 0x9E3779B97F4A7C15 >> 13)
}

// depNode is the dependency half of a Unit: predecessor count and successor
// list. The Unit's epoch, retired under mu, plays the role of a completed
// flag that also survives recycling.
type depNode struct {
	// npred counts unfinished predecessors plus one registration guard;
	// the task is ready when it reaches zero.
	npred atomic.Int32
	// mu guards succ and orders epoch retirement: addSuccessor
	// (registering thread) vs releaseSuccessors (completing thread, any).
	mu sync.Mutex
	// node is the graph node a replayed task runs (graph.go).
	node int32
	succ []*Unit
}

// addSuccessor records that s must wait for the incarnation of pred. It
// adds no edge when that incarnation has already completed (epoch moved
// on); a mismatch seen before locking already proves that, since epochs
// only move forward, so a retired predecessor costs one load. The
// successor's predecessor count is raised before pred's lock is taken so a
// completing pred can never drive it negative; if pred turns out to be done
// the increment is rolled back, which cannot release s because the caller
// still holds s's registration guard.
func addSuccessor(pred depRef, s *Unit) {
	u := pred.u
	if u == s || u.epoch.Load() != pred.epoch {
		return // not a self-edge (in+out on one address), nor a finished pred
	}
	s.dep.npred.Add(1)
	u.dep.mu.Lock()
	if u.epoch.Load() != pred.epoch {
		u.dep.mu.Unlock()
		s.dep.npred.Add(-1)
		return
	}
	u.dep.succ = append(u.dep.succ, s)
	u.dep.mu.Unlock()
}

// register wires u's dependence edges into parent's dephash. Called on the
// spawning thread with the registration guard (npred == 1) already held.
// node is u's node in the graph parent is recording, if it records one.
func (p *Pool) register(tid int, parent *Unit, u *Unit, deps []Dep, node int32) {
	if parent.depmap == nil {
		parent.depmap = &depMap{}
	}
	m := parent.depmap
	ref := depRef{u: u, epoch: u.epoch.Load(), node: node}
	rec := m.rec
	alloc := func() *depState { return p.allocState(tid) }
	for _, d := range deps {
		if d.Addr == 0 {
			panic("task: nil dependence address")
		}
		st := m.lookup(d.Addr, alloc)
		if rec != nil {
			rec.preds(st, d.Kind, node)
		}
		switch d.Kind {
		case DepIn:
			if st.lastOut.u != nil {
				addSuccessor(st.lastOut, u)
			}
			st.lastIns = append(st.lastIns, ref)
		default: // DepOut, DepInOut
			if st.lastOut.u != nil {
				addSuccessor(st.lastOut, u)
			}
			for _, r := range st.lastIns {
				addSuccessor(r, u)
			}
			st.lastIns = st.lastIns[:0]
			st.lastOut = ref
		}
	}
}

// releaseSuccessors retires u's dependency node after its body ran: bump
// the epoch under mu (so no further edges are added to this incarnation)
// and detach the successor list, keeping its capacity for the next
// incarnation. Newly ready successors are published as one batch — pushed
// onto the releasing thread's deque (the thread whose cache just produced
// the data they consume) with a single queued-counter update — except the
// first unprioritised one, which is returned for the caller to run inline:
// a dependence chain then advances with no queue traffic at all.
func (p *Pool) releaseSuccessors(tid int, u *Unit) (next *Unit) {
	u.dep.mu.Lock()
	u.epoch.Add(1) // retire: this incarnation accepts no more successors
	succ := u.dep.succ
	u.dep.succ = succ[:0]
	u.dep.mu.Unlock()
	// u is freed (and its succ capacity handed to the next incarnation)
	// only after execute's accounting, which runs after this loop — so
	// iterating the detached slice cannot race the reuse.
	batched := int64(0)
	emit := trace.Enabled()
	for i, s := range succ {
		succ[i] = nil
		if s.dep.npred.Add(-1) != 0 {
			continue
		}
		if emit {
			trace.Emit(trace.EvTaskReady, p.gtid(tid), int64(s.priority))
		}
		if next == nil && s.priority == 0 {
			next = s
			continue
		}
		if s.priority > 0 {
			p.prio.push(s)
		} else {
			p.deques[tid].pushBottom(s)
		}
		batched++
	}
	if batched > 0 {
		p.queued.Add(batched)
	}
	return next
}
