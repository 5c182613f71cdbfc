package task

import (
	"sync/atomic"

	"repro/internal/trace"
)

// Task graphs: record and replay (OpenMP 6.0's taskgraph construct,
// libomp's __kmpc_taskgraph). While a task records a Graph, every child it
// spawns becomes a node, and its edges are the logical ones: the tasks the
// dephash names as predecessors when the child registers, finished or not
// (addSuccessor drops a finished one; a replay cannot count on the record's
// timing). A replay runs the frozen DAG with per-node countdowns and
// recycled Units, and charges the parent, group and pool once for all of
// its nodes. Only edges between the graph's own nodes are replayed; a live
// sibling from outside the graph abandons the record. DESIGN.md ("Task
// graphs: record and replay") has the rules.

type graphState uint8

const (
	graphUnrecorded graphState = iota
	graphFrozen
	graphUnrecordable
)

// Graph is a task graph, recorded once and then replayed. The zero value
// is unrecorded. A Graph must not be encountered by two tasks at once.
type Graph struct {
	state graphState
	nodes []graphNode
	// Node k's successors are succ[off[k]:off[k+1]] (CSR).
	off, succ []int32
	// The record's scratch: refs[k] is node k's incarnation, edges holds
	// (from, to) pairs.
	refs  []depRef
	edges []int32
	// The running replay's parent and group, and its nodes left to finish.
	// Every node decrements left, so it has a cache line of its own.
	parent *Unit
	group  *Group
	_      [64]byte
	left   atomic.Int32
	_      [60]byte
}

// graphNode is one recorded task, its in-degree and its replay countdown.
type graphNode struct {
	fn       func(*Unit)
	user     any
	lo, hi   int
	priority int32
	indeg    int32
	count    atomic.Int32
	final    bool
	loop     bool
	deps     bool
}

// Recorded reports whether g holds a frozen graph to replay.
func (g *Graph) Recorded() bool { return g.state == graphFrozen }

// Unrecordable reports whether g's record was abandoned.
func (g *Graph) Unrecordable() bool { return g.state == graphUnrecordable }

// Spoil abandons g's record: the body did what a replay cannot reproduce.
func (g *Graph) Spoil() {
	g.state = graphUnrecordable
	g.nodes, g.refs, g.edges = nil, nil, nil
}

// Reset forgets g's recording (the graph_reset clause).
func (g *Graph) Reset() {
	g.state = graphUnrecorded
	g.nodes, g.off, g.succ, g.refs, g.edges = nil, nil, nil, nil, nil
}

// BeginRecord makes each task parent spawns until EndRecord a node of g.
func (g *Graph) BeginRecord(parent *Unit) {
	if parent.depmap == nil {
		parent.depmap = &depMap{}
	}
	parent.depmap.rec = g
}

// EndRecord stops parent's record and freezes g, unless it was spoiled.
func (g *Graph) EndRecord(parent *Unit) {
	parent.depmap.rec = nil
	if g.state == graphUnrecorded {
		g.freeze()
	}
}

// add records u, spawned with o, and returns its 1-based node number (0
// once the record is abandoned).
func (g *Graph) add(u *Unit, o *SpawnOpts) int32 {
	if g.state != graphUnrecorded {
		return 0
	}
	g.nodes = append(g.nodes, graphNode{fn: u.fn, user: o.User, lo: o.Lo, hi: o.Hi,
		priority: int32(o.Priority), final: o.Final, loop: o.Loop, deps: len(o.Deps) > 0})
	node := int32(len(g.nodes))
	g.refs = append(g.refs, depRef{u: u, epoch: u.epoch.Load(), node: node})
	return node
}

// preds records the edges into node from the tasks st names; register
// calls it before it updates st.
func (g *Graph) preds(st *depState, kind DepKind, node int32) {
	if g.state != graphUnrecorded {
		return
	}
	if st.lastOut.u != nil {
		g.edge(st.lastOut, node)
	}
	if kind != DepIn {
		for _, r := range st.lastIns {
			g.edge(r, node)
		}
	}
}

// edge records pred -> to if pred is a node of this record; a running
// predecessor from outside the graph abandons the record.
func (g *Graph) edge(pred depRef, to int32) {
	if k := pred.node; k > 0 && int(k) <= len(g.refs) && g.refs[k-1] == pred {
		if k != to { // an in and an out on one address: no self-edge
			g.edges = append(g.edges, k-1, to-1)
		}
		return
	}
	if pred.u.epoch.Load() == pred.epoch {
		g.Spoil()
	}
}

// freeze turns the edges into CSR lists and in-degrees, in one allocation.
func (g *Graph) freeze() {
	n := len(g.nodes)
	csr := make([]int32, n+1+len(g.edges)/2)
	g.off, g.succ = csr[:n+1], csr[n+1:]
	for i := 0; i < len(g.edges); i += 2 {
		g.off[g.edges[i]]++
		g.nodes[g.edges[i+1]].indeg++
	}
	for k := 1; k <= n; k++ {
		g.off[k] += g.off[k-1] // off[k] is now the end of node k's list
	}
	// Filling backwards moves each end to its start, keeping edge order.
	for i := len(g.edges) - 2; i >= 0; i -= 2 {
		from := g.edges[i]
		g.off[from]--
		g.succ[g.off[from]] = g.edges[i+1]
	}
	g.refs, g.edges = nil, nil
	g.state = graphFrozen
}

// Replay starts frozen graph g's nodes as children of parent in group (nil
// for none), with the roots on tid's deque; a taskwait or the group's wait
// sees them finish.
func (p *Pool) Replay(tid int, parent *Unit, group *Group, g *Graph) {
	n := len(g.nodes)
	if n == 0 {
		return
	}
	g.parent, g.group = parent, group
	g.left.Store(int32(n))
	parent.life.Add(1)
	if group != nil {
		group.count.Add(1)
	}
	p.outstanding.Add(int64(n))
	emit := trace.Enabled()
	for k := range g.nodes {
		nd := &g.nodes[k]
		nd.count.Store(nd.indeg)
		if emit {
			trace.Emit(trace.EvTaskCreate, p.gtid(tid), int64(nd.priority))
		}
	}
	roots := int64(0)
	for k := range g.nodes {
		if g.nodes[k].indeg == 0 {
			p.push(tid, p.graphUnit(tid, g, int32(k)))
			roots++
		}
	}
	p.queued.Add(roots)
}

// push queues u as ready does, leaving the queued count to the caller.
func (p *Pool) push(tid int, u *Unit) {
	if u.priority > 0 {
		p.prio.push(u)
	} else {
		p.deques[tid].pushBottom(u)
	}
}

// graphUnit hands node k of g, just made ready, a recycled Unit.
func (p *Pool) graphUnit(tid int, g *Graph, k int32) *Unit {
	nd := &g.nodes[k]
	u := p.allocUnit(tid)
	u.fn = nd.fn
	u.user = nd.user
	u.group = g.group
	u.priority = nd.priority
	u.final = nd.final
	u.loop = nd.loop
	u.lo, u.hi = nd.lo, nd.hi
	u.hasDeps = true
	u.graph, u.dep.node = g, k
	if nd.deps && trace.Enabled() {
		trace.Emit(trace.EvTaskReady, p.gtid(tid), int64(nd.priority))
	}
	return u
}

// graphDone retires replayed task u and releases its successors as
// releaseSuccessors does (one returned to run inline, the rest batched onto
// tid's deque). The last node of the replay drops Replay's charges.
func (p *Pool) graphDone(tid int, u *Unit) (next *Unit) {
	g, k := u.graph, u.dep.node
	batched := int64(0)
	for _, s := range g.succ[g.off[k]:g.off[k+1]] {
		if g.nodes[s].count.Add(-1) != 0 {
			continue
		}
		v := p.graphUnit(tid, g, s)
		if next == nil && v.priority == 0 {
			next = v
			continue
		}
		p.push(tid, v)
		batched++
	}
	if batched > 0 {
		p.queued.Add(batched)
	}
	u.graph = nil
	u.done.Store(true)
	if u.life.Add(-1) == 0 {
		p.free(tid, u)
	}
	if g.left.Add(-1) == 0 {
		// g may be replayed again once released, so read it out first.
		parent, group, n := g.parent, g.group, len(g.nodes)
		p.outstanding.Add(-int64(n))
		if group != nil {
			group.count.Add(-1)
		}
		if parent.life.Add(-1) == 0 {
			p.free(tid, parent)
		}
	}
	return next
}
