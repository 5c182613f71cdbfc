package core

import (
	"repro/internal/kmp"
)

// ParOption configures a parallel region (the clauses of `omp parallel`).
type ParOption func(*parConfig)

type parConfig struct {
	numThreads int
	ifClause   bool
	hasIf      bool
}

// NumThreads is the num_threads clause: request a team of n.
func NumThreads(n int) ParOption {
	return func(c *parConfig) { c.numThreads = n }
}

// If is the if clause: when cond is false the region executes serially on a
// team of one.
func If(cond bool) ParOption {
	return func(c *parConfig) { c.ifClause = cond; c.hasIf = true }
}

// Parallel executes body on a team of threads and joins them — the
// `omp parallel` directive. The body runs once per team member, receiving
// that member's Thread context. Data-sharing follows Go closure rules:
// captured variables are shared; declare locals inside the body for private
// semantics (the transformer in internal/transform rewrites clause-annotated
// code into exactly this shape).
func (r *Runtime) Parallel(body func(t *Thread), opts ...ParOption) {
	r.parallelFrom(r.sequentialThread(), body, opts...)
}

// parallelFrom forks a (possibly nested) region from the given thread.
func (r *Runtime) parallelFrom(parent *Thread, body func(t *Thread), opts ...ParOption) {
	var cfg parConfig
	// Applying options takes &cfg through opaque funcs, which forces cfg
	// to the heap; keeping that in a separate function keeps the no-clause
	// fork heap-free.
	if len(opts) > 0 {
		cfg = applyParOpts(opts)
	}
	spec := kmp.ForkSpec{NumThreads: cfg.numThreads, Serial: cfg.hasIf && !cfg.ifClause}
	// The forking member's tid keys the per-member nested hot-team cache,
	// so sibling members forking nested regions concurrently each reuse
	// their own team.
	r.pool.ForkFrom(parent.team, parent.tid, spec, func(tm *kmp.Team, tid int) {
		body(r.threadFor(tm, tid))
	})
}

func applyParOpts(opts []ParOption) parConfig {
	var cfg parConfig
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// threadFor returns member tid's Thread context, reviving the one cached on
// the team slot by a previous region when the team is a reused hot team.
// Hot teams make the kmp fork path allocation-free; recycling Thread
// contexts keeps the core layer from re-introducing per-member allocations
// on top of it. The slot is only touched by member tid inside the region,
// and the kmp team hand-off orders accesses across regions.
func (r *Runtime) threadFor(tm *kmp.Team, tid int) *Thread {
	slot := tm.Ctx(tid)
	th, _ := (*slot).(*Thread)
	if th == nil {
		th = new(Thread)
		*slot = th
	}
	// Keep the recycled scratch state: the collapsed-loop buffer, the
	// depend-clause buffer, and the task-execution Thread/group stacks.
	// Wiping any of them here would reintroduce the per-region allocations
	// their comments in thread.go promise are amortised away.
	*th = Thread{rt: r, team: tm, tid: tid, nestScratch: th.nestScratch,
		depScratch: th.depScratch, taskCtxs: th.taskCtxs, groups: th.groups}
	return th
}

// Parallel on a Thread forks a nested region (`omp parallel` encountered
// inside a parallel region). Whether it is active depends on the
// max-active-levels ICV, per the spec.
func (t *Thread) Parallel(body func(t *Thread), opts ...ParOption) {
	t.rt.parallelFrom(t, body, opts...)
}
