package core

import "repro/internal/task"

// Taskgraph is a task graph (OpenMP 6.0's taskgraph construct). The zero
// value is not yet recorded.
type Taskgraph struct{ g task.Graph }

// Reset is the graph_reset clause: the next encounter records again. It
// must not be called while the graph runs.
func (tg *Taskgraph) Reset() { tg.g.Reset() }

// Taskgraph runs body as the task graph tg and returns once every task it
// generated has completed: the construct is a taskgroup, as libomp's
// __kmpc_taskgraph is. The first encounter runs body and records each task
// it spawns (payload, priority, loop bounds) and the depend edges among
// them. Later encounters replay those tasks in dependence order without
// calling body, so they run the closures the record built. Only edges
// between the graph's own tasks are replayed.
//
// A body that spawns an undeferred task (final, TaskIf(false)), reaches
// Taskwait, Taskgroup, Taskloop, Taskyield or Barrier, nests a Taskgraph,
// depends on a running sibling from outside the graph, or panics leaves tg
// unrecordable: every encounter then runs body in a plain taskgroup.
func (t *Thread) Taskgraph(tg *Taskgraph, body func()) {
	if t.team == nil {
		body()
		return
	}
	g := &tg.g
	if t.graph != nil {
		t.Taskgroup(body) // nested: abandons the outer record
		return
	}
	prev := t.curGroup
	grp := t.taskgroupBegin()
	switch {
	case g.Recorded():
		t.team.Tasks().Replay(t.tid, t.parentUnit(), grp, g)
	case g.Unrecordable():
		body()
	default:
		t.record(g, body)
	}
	t.taskgroupEnd(grp, prev)
}

// record runs body while t's task records the tasks it spawns into g.
func (t *Thread) record(g *task.Graph, body func()) {
	parent := t.parentUnit()
	g.BeginRecord(parent)
	t.graph = g
	ok := false
	defer func() {
		t.graph = nil
		if !ok {
			g.Spoil() // body panicked
		}
		g.EndRecord(parent)
	}()
	body()
	ok = true
}

// noReplay marks the graph t is recording, if any, unrecordable: t has
// reached a construct a replay cannot reproduce.
func (t *Thread) noReplay() {
	if t.graph != nil {
		t.graph.Spoil()
	}
}
