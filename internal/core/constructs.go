package core

import "repro/internal/trace"

// The non-loop worksharing and synchronisation constructs: single, master,
// sections, critical.

// Single executes fn on exactly one (unspecified) thread of the team — the
// single construct. The other threads skip fn; all threads synchronise at an
// implicit barrier afterwards unless NoWait is given. Returns whether this
// thread was the one that executed fn.
func (t *Thread) Single(fn func(), opts ...ForOption) bool {
	cfg := buildForConfig(opts)
	if t.team == nil {
		fn()
		return true
	}
	won := t.trySingle()
	if won {
		fn()
	}
	if !cfg.nowait {
		t.Barrier()
	}
	return won
}

// trySingle claims the thread's next single construct: each member counts
// the singles it meets and races the others to advance the team's counter
// to that count (kmp.Team.TrySingle), so no per-construct state is needed.
func (t *Thread) trySingle() bool {
	t.singles++
	return t.team.TrySingle(t.singles)
}

// SingleCopy is single with a copyprivate clause: the winner's fn computes a
// value that is broadcast to every team member's return. The implicit
// barrier is mandatory here (copyprivate forbids nowait).
func (t *Thread) SingleCopy(fn func() any) any {
	seq, e := t.construct()
	if e == nil {
		return fn()
	}
	if t.trySingle() {
		e.SetCopyPrivate(fn())
	}
	v := e.CopyPrivate()
	t.Barrier()
	t.team.Retire(seq, e)
	return v
}

// Master executes fn only on thread 0 — the master (5.1: masked) construct.
// No implied barrier, per the spec. Returns whether fn ran.
func (t *Thread) Master(fn func()) bool {
	if t.tid != 0 {
		return false
	}
	fn()
	return true
}

// Sections distributes the given section bodies over the team — the
// sections construct. Each section executes exactly once; an implicit
// barrier follows unless NoWait is given.
func (t *Thread) Sections(fns []func(), opts ...ForOption) {
	cfg := buildForConfig(opts)
	seq, e := t.construct()
	if e == nil {
		for _, fn := range fns {
			fn()
		}
		return
	}
	for {
		idx, ok := e.NextSection(len(fns))
		if !ok {
			break
		}
		fns[idx]()
	}
	if !cfg.nowait {
		t.Barrier()
	}
	t.team.Retire(seq, e)
}

// Critical executes fn under the named critical-section lock — the critical
// construct. All unnamed criticals (name "") share one lock process-wide
// within the runtime, and identically named criticals exclude each other
// even across different teams, exactly as in OpenMP.
func (t *Thread) Critical(name string, fn func()) {
	l := t.rt.criticalLock(name)
	l.Set()
	if trace.Enabled() {
		trace.Emit(trace.EvCriticalEnter, t.GlobalID(), 0)
		defer trace.Emit(trace.EvCriticalExit, t.GlobalID(), 0)
	}
	defer l.Unset()
	fn()
}

// Critical on the runtime is for sequential or cross-region use.
func (r *Runtime) Critical(name string, fn func()) {
	l := r.criticalLock(name)
	l.Set()
	defer l.Unset()
	fn()
}
