package core

import (
	"repro/internal/kmp"
	"repro/internal/sched"
)

// The teams and distribute constructs (OpenMP 5.2 §10/§11.6), host
// fallback: a league of independent teams, each with its own initial
// thread; distribute splits an iteration space across the league, and
// parallel regions inside a team fork within that team only. On a
// non-offloading implementation the league's teams are peers of the host
// device, which is exactly how `omp target teams` behaves without a device.

// TeamsCtx is the context of one league member's initial thread.
type TeamsCtx struct {
	rt       *Runtime
	teamNum  int
	numTeams int
	// thread is the member's initial-thread context, bound to the kmp
	// league team. It exists to key the per-member nested hot-team cache:
	// parallel regions forked through it are cached on the league team per
	// member, so concurrent league members don't contend for the pool's
	// single top-level slot. League membership is not a parallel region
	// (the league team's level is 0), so nesting semantics are unchanged.
	thread *Thread
}

// TeamNum returns this team's index in the league (omp_get_team_num).
func (tc *TeamsCtx) TeamNum() int { return tc.teamNum }

// NumTeams returns the league size (omp_get_num_teams).
func (tc *TeamsCtx) NumTeams() int { return tc.numTeams }

// Teams runs body once per team on a league of numTeams initial threads
// and waits for the league to complete — the teams construct. numTeams <= 0
// selects a league of one team per available processor's worth
// (nthreads-var), the implementation-defined default; the thread-limit ICV
// caps the league like any other thread request.
//
// League masters are kmp pool workers rather than per-invocation raw
// goroutines, so repeated leagues reuse a cached hot team and the members
// count against the pool's thread-limit accounting.
func (r *Runtime) Teams(numTeams int, body func(tc *TeamsCtx)) {
	if numTeams <= 0 {
		numTeams = r.MaxThreads()
	}
	numTeams = r.pool.LeagueSize(numTeams)
	r.pool.League(numTeams, func(tm *kmp.Team, g int) {
		body(&TeamsCtx{rt: r, teamNum: g, numTeams: numTeams, thread: r.threadFor(tm, g)})
	})
}

// distributeBounds returns this team's block of 0..n-1.
func (tc *TeamsCtx) distributeBounds(n int) (int, int) {
	small := n / tc.numTeams
	extra := n % tc.numTeams
	if tc.teamNum < extra {
		lo := tc.teamNum * (small + 1)
		return lo, lo + small + 1
	}
	lo := extra*(small+1) + (tc.teamNum-extra)*small
	return lo, lo + small
}

// Distribute executes this team's block of the iteration space on the
// team's initial thread — the distribute construct.
func (tc *TeamsCtx) Distribute(n int, body func(i int)) {
	lo, hi := tc.distributeBounds(n)
	for i := lo; i < hi; i++ {
		body(i)
	}
}

// DistributeParallelFor is the composite `distribute parallel for`: the
// league splits the iteration space into team blocks, and each team
// workshares its block across a freshly forked inner team.
func (tc *TeamsCtx) DistributeParallelFor(n int, body func(i int, t *Thread), opts ...any) {
	lo, hi := tc.distributeBounds(n)
	parOpts, forOpts := splitOpts(opts)
	tc.Parallel(func(t *Thread) {
		t.ForLoop(sched.Loop{Begin: int64(lo), End: int64(hi), Step: 1}, func(i int64) {
			body(int(i), t)
		}, forOpts...)
	}, parOpts...)
}

// Parallel forks a parallel region within this team (a parallel construct
// nested in teams). Forking through the league-bound thread gives each
// league member its own cached hot team.
func (tc *TeamsCtx) Parallel(body func(t *Thread), opts ...ParOption) {
	if tc.thread == nil { // zero-value ctx: fall back to the top-level path
		tc.rt.Parallel(body, opts...)
		return
	}
	tc.rt.parallelFrom(tc.thread, body, opts...)
}
