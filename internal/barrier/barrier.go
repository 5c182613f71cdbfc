// Package barrier implements team barriers — the synchronisation point at
// the end of every parallel region and (non-nowait) worksharing construct.
//
// Three classic algorithms are provided so the A1 ablation in DESIGN.md can
// compare them:
//
//   - Central: a single sense-reversing counter. O(1) state, but the counter
//     cache line is contended by every arriving thread, so it degrades as
//     the team grows.
//   - Tree: arrivals combine up a k-ary tree and release broadcasts down it,
//     spreading contention over log_k(n) cache lines.
//   - Dissemination: log2(n) rounds of pairwise signalling; no single hot
//     location and the lowest latency at scale.
//
// All barriers are cyclic (reusable) and safe for the fixed set of
// participants they were constructed for. Waiting uses a spin-then-yield
// -then-sleep policy (see wait.go) so the runtime remains live even when
// there are more "threads" (goroutines) than GOMAXPROCS — a situation a
// pthreads runtime like libomp handles with futexes.
package barrier

import (
	"fmt"
	"sync/atomic"

	"repro/internal/icv"
)

// Work is a source of deferred work a barrier waiter may execute while it
// idles — in the runtime, the team's explicit-task pool. RunOne must be
// cheap when no work is pending (it is polled from wait loops) and must
// never block on the caller's own progress. Team barriers are task
// scheduling points (OpenMP 5.2 §15.9.5), which is exactly what WaitWork
// implements.
type Work interface {
	// RunOne executes one unit of pending work on behalf of participant
	// id, reporting whether anything was executed.
	RunOne(id int) bool
}

// Barrier synchronises a fixed team of n participants. Wait blocks until all
// n participants of the current phase have arrived.
type Barrier interface {
	// Wait blocks participant id (0 <= id < N()) until the whole team
	// has arrived.
	Wait(id int)
	// WaitWork is Wait, but the participant executes units of w while it
	// waits instead of only spinning — the barrier-as-task-scheduling-
	// point behaviour. A nil w degenerates to Wait.
	WaitWork(id int, w Work)
	// N returns the number of participants.
	N() int
}

// Kind names a barrier algorithm; a pool builds its teams' barriers of the
// kind set with kmp's Pool.SetBarrierKind.
type Kind int

const (
	// CentralKind selects the sense-reversing counter barrier.
	CentralKind Kind = iota
	// TreeKind selects the combining-tree barrier.
	TreeKind
	// DisseminationKind selects the dissemination barrier.
	DisseminationKind
)

// String returns the lowercase algorithm name.
func (k Kind) String() string {
	switch k {
	case CentralKind:
		return "central"
	case TreeKind:
		return "tree"
	case DisseminationKind:
		return "dissemination"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind parses a barrier algorithm name.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "central":
		return CentralKind, nil
	case "tree":
		return TreeKind, nil
	case "dissemination":
		return DisseminationKind, nil
	default:
		return 0, fmt.Errorf("barrier: unknown kind %q", s)
	}
}

// New constructs a barrier of the given kind for n participants.
func New(kind Kind, n int, policy icv.WaitPolicy) Barrier {
	RefreshProcs()
	switch kind {
	case TreeKind:
		return NewTree(n, policy)
	case DisseminationKind:
		return NewDissemination(n, policy)
	default:
		return NewCentral(n, policy)
	}
}

// Central is the sense-reversing centralized barrier: one atomic arrival
// counter plus a global sense flag; each thread keeps a private sense it
// flips per phase. This is the textbook algorithm libomp calls "linear bar".
type Central struct {
	n      int
	policy icv.WaitPolicy
	count  atomic.Int64
	sense  atomic.Uint32
	local  []paddedU32 // per-participant private sense
}

// NewCentral returns a central barrier for n participants.
func NewCentral(n int, policy icv.WaitPolicy) *Central {
	if n < 1 {
		panic("barrier: need at least one participant")
	}
	return &Central{n: n, policy: policy, local: make([]paddedU32, n)}
}

// N returns the number of participants.
func (b *Central) N() int { return b.n }

// Wait implements Barrier.
func (b *Central) Wait(id int) { b.WaitWork(id, nil) }

// WaitWork implements Barrier.
func (b *Central) WaitWork(id int, w Work) {
	mySense := b.local[id].v ^ 1 // the sense this phase will release on
	b.local[id].v = mySense
	if b.count.Add(1) == int64(b.n) {
		// Last arrival: reset the counter and release everyone.
		b.count.Store(0)
		b.sense.Store(mySense)
		return
	}
	waitU32(&b.sense, mySense, b.policy, w, id)
}

// treeNode is one combining node; padded so parent/child flags on different
// nodes do not share cache lines.
type treeNode struct {
	arrived atomic.Int64
	_       [48]byte
}

// Tree is a k-ary combining-tree barrier (arity fixed at 4, libomp's
// default "hyper" branching factor). Participant 0 is the root.
type Tree struct {
	n      int
	arity  int
	policy icv.WaitPolicy
	nodes  []treeNode
	sense  atomic.Uint32
	local  []paddedU32
}

// NewTree returns a tree barrier for n participants.
func NewTree(n int, policy icv.WaitPolicy) *Tree {
	if n < 1 {
		panic("barrier: need at least one participant")
	}
	return &Tree{
		n:      n,
		arity:  4,
		policy: policy,
		nodes:  make([]treeNode, n),
		local:  make([]paddedU32, n),
	}
}

// N returns the number of participants.
func (b *Tree) N() int { return b.n }

// children returns the number of tree children of participant id.
func (b *Tree) children(id int) int {
	c := 0
	for k := 1; k <= b.arity; k++ {
		if id*b.arity+k < b.n {
			c++
		}
	}
	return c
}

// Wait implements Barrier. Arrivals propagate up the tree: each node waits
// for its children's arrival counts, then reports to its parent; the root
// flips the global sense to release all spinners.
func (b *Tree) Wait(id int) { b.WaitWork(id, nil) }

// WaitWork implements Barrier. Work is executed both while gathering
// children (the participant has not passed the barrier yet) and while
// awaiting the release broadcast.
func (b *Tree) WaitWork(id int, w Work) {
	mySense := b.local[id].v ^ 1
	b.local[id].v = mySense

	// Gather: wait for all children of this node to have arrived.
	want := int64(b.children(id))
	if want > 0 {
		spinInt64(&b.nodes[id].arrived, want, b.policy, w, id)
		b.nodes[id].arrived.Store(0)
	}
	if id == 0 {
		// Root: everyone is in; broadcast release.
		b.sense.Store(mySense)
		return
	}
	parent := (id - 1) / b.arity
	b.nodes[parent].arrived.Add(1)
	waitU32(&b.sense, mySense, b.policy, w, id)
}

// Dissemination is the dissemination barrier: ceil(log2 n) rounds where in
// round r participant i signals participant (i + 2^r) mod n and waits for a
// signal from (i - 2^r) mod n. Phase counters (not senses) make it cyclic.
type Dissemination struct {
	n      int
	rounds int
	policy icv.WaitPolicy
	// flags[i][r] counts signals received by participant i in round r.
	flags [][]paddedI64
	phase []paddedU32 // per-participant phase number
}

// NewDissemination returns a dissemination barrier for n participants.
func NewDissemination(n int, policy icv.WaitPolicy) *Dissemination {
	if n < 1 {
		panic("barrier: need at least one participant")
	}
	rounds := 0
	for 1<<rounds < n {
		rounds++
	}
	flags := make([][]paddedI64, n)
	for i := range flags {
		flags[i] = make([]paddedI64, max(rounds, 1))
	}
	return &Dissemination{n: n, rounds: rounds, policy: policy, flags: flags, phase: make([]paddedU32, n)}
}

// N returns the number of participants.
func (b *Dissemination) N() int { return b.n }

// Wait implements Barrier.
func (b *Dissemination) Wait(id int) { b.WaitWork(id, nil) }

// WaitWork implements Barrier; work is executed while awaiting each round's
// peer signal.
func (b *Dissemination) WaitWork(id int, w Work) {
	if b.n == 1 {
		return
	}
	phase := int64(b.phase[id].v) + 1
	b.phase[id].v = uint32(phase)
	for r := 0; r < b.rounds; r++ {
		peer := (id + (1 << r)) % b.n
		b.flags[peer][r].v.Add(1)
		// Wait until our round-r flag reaches this phase's count.
		spinInt64(&b.flags[id][r].v, phase, b.policy, w, id)
	}
}

// paddedU32 is a uint32 on its own cache line.
type paddedU32 struct {
	v uint32
	_ [60]byte
}

// paddedI64 is an atomic.Int64 on its own cache line.
type paddedI64 struct {
	v atomic.Int64
	_ [56]byte
}
