package kmp

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/barrier"
)

// TestHotTeamSlotStability pins the property threadprivate relies on: with
// hot-team reuse, successive identical forks bind each team slot (tid) to
// the same worker goroutine (same gtid).
func TestHotTeamSlotStability(t *testing.T) {
	p := NewPool(fixedICVs(4))
	var first [4]int
	p.Fork(nil, ForkSpec{}, func(tm *Team, tid int) {
		first[tid] = tm.GTID(tid)
	})
	for round := 0; round < 10; round++ {
		var drift int
		p.Fork(nil, ForkSpec{}, func(tm *Team, tid int) {
			if tm.GTID(tid) != first[tid] {
				drift++ // executed only by that tid; benign race-free under test
			}
		})
		if drift != 0 {
			t.Fatalf("round %d: %d slots changed workers", round, drift)
		}
	}
}

// TestHotTeamShrinkGrow: team-size changes reuse the prefix of workers.
func TestHotTeamShrinkGrow(t *testing.T) {
	p := NewPool(fixedICVs(4))
	p.Fork(nil, ForkSpec{NumThreads: 4}, func(*Team, int) {})
	created := p.LiveWorkers()
	p.Fork(nil, ForkSpec{NumThreads: 2}, func(*Team, int) {})
	p.Fork(nil, ForkSpec{NumThreads: 4}, func(*Team, int) {})
	if p.LiveWorkers() != created {
		t.Errorf("shrink/grow churned workers: %d -> %d", created, p.LiveWorkers())
	}
}

// TestHotTeamAlternatingSizes: alternating fork sizes must never reuse a
// stale team — every region sees exactly its requested size and runs every
// member.
func TestHotTeamAlternatingSizes(t *testing.T) {
	p := NewPool(fixedICVs(4))
	for round, n := range []int{4, 2, 4, 2, 4, 1, 4, 3, 4} {
		var mask atomic.Int64
		p.Fork(nil, ForkSpec{NumThreads: n}, func(tm *Team, tid int) {
			if tm.N() != n {
				t.Errorf("round %d: team size %d, want %d", round, tm.N(), n)
			}
			mask.Or(1 << tid)
		})
		if mask.Load() != int64(1<<n)-1 {
			t.Errorf("round %d (n=%d): member mask %b", round, n, mask.Load())
		}
	}
}

// TestHotTeamICVNumThreadsChange: omp_set_num_threads between regions must
// invalidate the cached team (the size is re-resolved per fork).
func TestHotTeamICVNumThreadsChange(t *testing.T) {
	icvs := fixedICVs(4)
	p := NewPool(icvs)
	p.Fork(nil, ForkSpec{}, func(tm *Team, tid int) {})
	icvs.NumThreads = []int{2}
	var n atomic.Int64
	p.Fork(nil, ForkSpec{}, func(tm *Team, tid int) {
		if tid == 0 {
			n.Store(int64(tm.N()))
		}
	})
	if n.Load() != 2 {
		t.Errorf("after ICV change, team size %d, want 2", n.Load())
	}
}

// TestHotTeamNestedReuse: nested regions get their own cached team on the
// parent, and repeated nested forks neither churn workers nor leak them.
func TestHotTeamNestedReuse(t *testing.T) {
	icvs := fixedICVs(2)
	icvs.MaxActiveLevels = 2
	p := NewPool(icvs)
	var inner atomic.Int64
	run := func() {
		p.Fork(nil, ForkSpec{}, func(outer *Team, otid int) {
			p.Fork(outer, ForkSpec{NumThreads: 2}, func(in *Team, itid int) {
				inner.Add(1)
				if in.Level() != 2 || in.Parent() != outer {
					t.Error("nested team misparented after reuse")
				}
			})
		})
	}
	run()
	created := p.LiveWorkers()
	for i := 0; i < 10; i++ {
		run()
	}
	if got := inner.Load(); got != 11*2*2 {
		t.Errorf("inner executions = %d, want %d", got, 11*2*2)
	}
	if p.LiveWorkers() != created {
		t.Errorf("nested reuse churned workers: %d -> %d", created, p.LiveWorkers())
	}
}

// TestHotTeamBarrierKindChange: changing the barrier algorithm between
// regions must rebuild the team rather than reuse one with the old barrier.
func TestHotTeamBarrierKindChange(t *testing.T) {
	p := NewPool(fixedICVs(4))
	p.Fork(nil, ForkSpec{}, func(tm *Team, tid int) { tm.Barrier(tid) })
	p.SetBarrierKind(barrier.CentralKind)
	var count atomic.Int64
	p.Fork(nil, ForkSpec{}, func(tm *Team, tid int) {
		count.Add(1)
		tm.Barrier(tid)
	})
	if count.Load() != 4 {
		t.Errorf("after barrier-kind change, ran %d members", count.Load())
	}
}

// TestHotTeamCancellationCleared: a cancel in one region must not leak into
// the next region on the reused team.
func TestHotTeamCancellationCleared(t *testing.T) {
	p := NewPool(fixedICVs(4))
	p.Fork(nil, ForkSpec{}, func(tm *Team, tid int) {
		if tid == 0 {
			tm.Cancel()
		}
		tm.Barrier(tid)
	})
	var stale atomic.Int64
	p.Fork(nil, ForkSpec{}, func(tm *Team, tid int) {
		if tm.Cancelled() {
			stale.Add(1)
		}
	})
	if stale.Load() != 0 {
		t.Errorf("%d members saw a stale cancellation after team reuse", stale.Load())
	}
}

// TestHotTeamConstructStateCleared: worksharing state (the single counter,
// section cursors) from one region must be recycled before the team is
// reused, and the construct ring must serve fresh sequence numbers.
func TestHotTeamConstructStateCleared(t *testing.T) {
	p := NewPool(fixedICVs(4))
	for region := 0; region < 3; region++ {
		var winners, sections atomic.Int64
		p.Fork(nil, ForkSpec{}, func(tm *Team, tid int) {
			for seq := int64(1); seq <= 2*wsRingSize; seq++ {
				e := tm.Construct(seq)
				if tm.TrySingle(seq) {
					winners.Add(1)
				}
				if _, ok := e.NextSection(1); ok {
					sections.Add(1)
				}
				tm.Retire(seq, e)
			}
			tm.Barrier(tid)
		})
		if got := winners.Load(); got != 2*wsRingSize {
			t.Errorf("region %d: single winners = %d, want %d", region, got, 2*wsRingSize)
		}
		if got := sections.Load(); got != 2*wsRingSize {
			t.Errorf("region %d: sections claimed = %d, want %d", region, got, 2*wsRingSize)
		}
	}
}

// TestLeagueReusesHotTeam: repeated leagues (the teams construct substrate)
// reuse their cached team instead of spawning fresh goroutines.
func TestLeagueReusesHotTeam(t *testing.T) {
	p := NewPool(fixedICVs(4))
	var ran atomic.Int64
	p.League(3, func(_ *Team, m int) { ran.Add(1) })
	created := p.LiveWorkers()
	for i := 0; i < 10; i++ {
		p.League(3, func(_ *Team, m int) { ran.Add(1) })
	}
	if ran.Load() != 33 {
		t.Errorf("league members ran %d times, want 33", ran.Load())
	}
	if p.LiveWorkers() != created {
		t.Errorf("league churned workers: %d -> %d", created, p.LiveWorkers())
	}
}

// TestLeagueSizeThreadLimit: league size is capped by thread-limit-var.
func TestLeagueSizeThreadLimit(t *testing.T) {
	icvs := fixedICVs(4)
	icvs.ThreadLimit = 3
	p := NewPool(icvs)
	if n := p.LeagueSize(8); n != 3 {
		t.Errorf("LeagueSize(8) = %d with limit 3", n)
	}
	var ran atomic.Int64
	p.League(8, func(_ *Team, m int) { ran.Add(1) })
	if ran.Load() != 3 {
		t.Errorf("league ran %d members, want 3 (thread limit)", ran.Load())
	}
}

// TestLeagueAndForkCachesIndependent: a league does not evict the parallel
// hot team or vice versa.
func TestLeagueAndForkCachesIndependent(t *testing.T) {
	p := NewPool(fixedICVs(2))
	p.Fork(nil, ForkSpec{}, func(*Team, int) {})
	p.League(3, func(*Team, int) {})
	created := p.LiveWorkers()
	for i := 0; i < 5; i++ {
		p.Fork(nil, ForkSpec{}, func(*Team, int) {})
		p.League(3, func(*Team, int) {})
	}
	if p.LiveWorkers() != created {
		t.Errorf("interleaved fork/league churned workers: %d -> %d", created, p.LiveWorkers())
	}
}

// TestSerialRegionsDontEvictHotTeam: serialised regions (if(false),
// num_threads(1)) cache in their own slot, so alternating serial/parallel
// top-level regions stay allocation-free instead of rebuilding the parallel
// team every time.
func TestSerialRegionsDontEvictHotTeam(t *testing.T) {
	p := NewPool(fixedICVs(4))
	micro := func(*Team, int) {}
	for i := 0; i < 4; i++ {
		p.Fork(nil, ForkSpec{Serial: true}, micro)
		p.Fork(nil, ForkSpec{}, micro)
	}
	avg := testing.AllocsPerRun(50, func() {
		p.Fork(nil, ForkSpec{Serial: true}, micro)
		p.Fork(nil, ForkSpec{}, micro)
	})
	if avg != 0 {
		t.Errorf("alternating serial/parallel forks: %v allocs/op, want 0 (eviction?)", avg)
	}
}

// TestPerMemberNestedCaches: sibling members forking nested regions
// concurrently each keep their own cached child team (keyed by ForkFrom's
// ptid), so steady-state nested forking leaves no worker on the free list
// and spawns none.
func TestPerMemberNestedCaches(t *testing.T) {
	icvs := fixedICVs(2)
	icvs.MaxActiveLevels = 2
	p := NewPool(icvs)
	run := func() {
		p.Fork(nil, ForkSpec{}, func(outer *Team, otid int) {
			p.ForkFrom(outer, otid, ForkSpec{NumThreads: 2}, func(*Team, int) {})
		})
	}
	run()
	created := p.LiveWorkers()
	for i := 0; i < 10; i++ {
		run()
	}
	if p.LiveWorkers() != created {
		t.Errorf("per-member nested forks churned workers: %d -> %d", created, p.LiveWorkers())
	}
	// Every nested team stays cached on its member's slot — none was
	// dismantled to the free list by slot contention.
	if idle := p.IdleWorkers(); idle != 0 {
		t.Errorf("%d workers idle; per-member child caches should keep all bound", idle)
	}
}

// TestWorkersWakeAfterBlocking: a worker parked long enough to fall through
// its spin/yield/sleep backoff into the blocking stage must still be
// releasable by the next fork (the wake-channel hand-off).
func TestWorkersWakeAfterBlocking(t *testing.T) {
	p := NewPool(fixedICVs(4))
	p.Fork(nil, ForkSpec{}, func(*Team, int) {})
	// The sleep backoff saturates after ~6ms; well past that, workers are
	// blocked on their wake channels.
	time.Sleep(50 * time.Millisecond)
	var mask atomic.Int64
	p.Fork(nil, ForkSpec{}, func(tm *Team, tid int) {
		mask.Or(1 << tid)
	})
	if mask.Load() != 0b1111 {
		t.Errorf("after blocking park, member mask %b, want 1111", mask.Load())
	}
	p.Shutdown() // must also wake blocked workers
	if p.LiveWorkers() != 0 {
		t.Errorf("live after shutdown = %d", p.LiveWorkers())
	}
}

func TestTeamSizeNeverExceedsLimitProperty(t *testing.T) {
	icvs := fixedICVs(8)
	for limit := 1; limit <= 10; limit++ {
		icvs.ThreadLimit = limit
		p := NewPool(icvs)
		for req := 0; req <= 12; req++ {
			n := p.TeamSize(nil, ForkSpec{NumThreads: req})
			if n > limit {
				t.Fatalf("limit %d request %d: team %d", limit, req, n)
			}
			if n < 1 {
				t.Fatalf("team size %d < 1", n)
			}
		}
	}
}

// --- Sharded hot-team pool ------------------------------------------------
//
// The tests below pin the multi-tenant invariants of the shard table: a
// cached team is handed to exactly one forker (never stale, never doubly
// claimed), shape changes invalidate per-tenant without poisoning siblings,
// steals keep the worker set bounded, and resizing drains the old table.

// TestShardTableSizing: the table rounds up to a power of two, clamps to
// [1, maxTeamShards], and sizes from GOMAXPROCS when asked for auto.
func TestShardTableSizing(t *testing.T) {
	p := NewPool(fixedICVs(2))
	for _, tc := range []struct{ req, want int }{
		{1, 1}, {2, 2}, {3, 4}, {5, 8}, {64, 64}, {100, 64},
	} {
		p.SetShards(tc.req)
		if got := p.Shards(); got != tc.want {
			t.Errorf("SetShards(%d): %d shards, want %d", tc.req, got, tc.want)
		}
	}
	p.SetShards(0) // auto
	if got := p.Shards(); got < 1 || got&(got-1) != 0 {
		t.Errorf("auto shards = %d, want a positive power of two", got)
	}
	p.Shutdown()
}

// TestShardConcurrentForksNeverShareATeam: a crowd of tenants forking
// concurrently across the shard table must each get a private, correctly
// sized team every time. A stale team would fail the size check; a doubly
// claimed team would trip the running guard in runTeam (loud panic).
func TestShardConcurrentForksNeverShareATeam(t *testing.T) {
	icvs := fixedICVs(4)
	icvs.Dynamic = true // shrink under load rather than wait: more reuse churn
	p := NewPool(icvs)
	defer p.Shutdown()
	p.SetShards(4)

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				n := 2 + (g+i)%3 // sizes 2..4, phase-shifted per tenant
				var mask atomic.Int64
				p.Fork(nil, ForkSpec{NumThreads: n}, func(tm *Team, tid int) {
					if tm.N() > n {
						t.Errorf("asked for %d, got team of %d", n, tm.N())
					}
					mask.Or(1 << tid)
				})
				// The arbiter may shrink the team, but whatever size ran must
				// have run every member exactly once.
				if m := mask.Load(); m == 0 || (m&(m+1)) != 0 {
					t.Errorf("tenant %d round %d: member mask %b not a full prefix", g, i, m)
				}
			}
		}(g)
	}
	wg.Wait()
	p.WaitQuiescent()
	if used := p.ThreadBudgetUsed(); used != 0 {
		t.Errorf("budget after concurrent forks = %d, want 0", used)
	}
}

// TestShardStealKeepsWorkerSetBounded: with one warm team in the table,
// sequential forks from many distinct goroutines (distinct stacks, so
// varying home shards) must always find it — by home hit or cross-shard
// steal — and never build a second team. LiveWorkers staying flat is the
// proof; a single cold build would bind three more workers permanently.
func TestShardStealKeepsWorkerSetBounded(t *testing.T) {
	p := NewPool(fixedICVs(4))
	defer p.Shutdown()
	p.SetShards(8)

	p.Fork(nil, ForkSpec{}, func(*Team, int) {}) // warm one team
	warm := p.LiveWorkers()
	if warm != 3 {
		t.Fatalf("warm LiveWorkers = %d, want 3", warm)
	}
	for i := 0; i < 64; i++ {
		done := make(chan struct{})
		go func() {
			defer close(done)
			var mask atomic.Int64
			p.Fork(nil, ForkSpec{}, func(tm *Team, tid int) {
				mask.Or(1 << tid)
			})
			if mask.Load() != 0b1111 {
				t.Errorf("fork %d: mask %b", i, mask.Load())
			}
		}()
		<-done
		if live := p.LiveWorkers(); live != warm {
			t.Fatalf("fork %d from fresh goroutine built a cold team: LiveWorkers %d, want %d (steals so far: %d)",
				i, live, warm, p.ShardSteals())
		}
	}
	t.Logf("served 64 single-tenant forks with %d cross-shard steals", p.ShardSteals())
}

// TestShardICVChangeInvalidatesPerTenant: tenants fork default-sized
// regions while nthreads-var is republished concurrently. Every region must
// see a coherent size — one of the published values, never a torn or stale
// intermediate — and run exactly that many members.
func TestShardICVChangeInvalidatesPerTenant(t *testing.T) {
	icvs := fixedICVs(4)
	p := NewPool(icvs)
	defer p.Shutdown()
	p.SetShards(4)

	stop := make(chan struct{})
	var flips sync.WaitGroup
	flips.Add(1)
	go func() {
		defer flips.Done()
		sizes := [][]int{{2}, {4}, {3}}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				p.SetNumThreadsVar(sizes[i%len(sizes)])
				runtime.Gosched()
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 80; i++ {
				var mask atomic.Int64
				var size atomic.Int64
				p.Fork(nil, ForkSpec{}, func(tm *Team, tid int) {
					size.Store(int64(tm.N()))
					mask.Or(1 << tid)
				})
				n := size.Load()
				if n < 2 || n > 4 {
					t.Errorf("region saw size %d, want one of the published 2..4", n)
				}
				if mask.Load() != int64(1<<n)-1 {
					t.Errorf("size %d but member mask %b", n, mask.Load())
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	flips.Wait()
	p.WaitQuiescent()
}

// TestShardNestedForksAcrossShards: tenants on different shards each fork
// nested regions concurrently; nested caches are per parent member, so the
// storm must never cross-wire a nested team either.
func TestShardNestedForksAcrossShards(t *testing.T) {
	icvs := fixedICVs(2)
	icvs.MaxActiveLevels = 2
	p := NewPool(icvs)
	defer p.Shutdown()
	p.SetShards(4)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				var inner atomic.Int64
				p.Fork(nil, ForkSpec{NumThreads: 2}, func(tm *Team, tid int) {
					p.ForkFrom(tm, tid, ForkSpec{NumThreads: 2}, func(nt *Team, ntid int) {
						inner.Add(1)
					})
				})
				// 2 outer members × a nested team each; the arbiter may
				// serialise some nested teams, so the count is 2..4 — but a
				// lost or double-run member would fall outside it.
				if n := inner.Load(); n < 2 || n > 4 {
					t.Errorf("nested member executions = %d, want 2..4", n)
				}
			}
		}()
	}
	wg.Wait()
	p.WaitQuiescent()
	if used := p.ThreadBudgetUsed(); used != 0 {
		t.Errorf("budget after nested storm = %d, want 0", used)
	}
}

// TestSetShardsDrainsOldTable: resizing on a quiescent pool dismantles the
// cached teams of the retired table (their workers return to the free
// list) and the new table serves forks immediately.
func TestSetShardsDrainsOldTable(t *testing.T) {
	p := NewPool(fixedICVs(4))
	p.SetShards(4)
	p.Fork(nil, ForkSpec{}, func(*Team, int) {})
	p.WaitQuiescent()

	p.SetShards(1)
	var mask atomic.Int64
	p.Fork(nil, ForkSpec{}, func(tm *Team, tid int) {
		mask.Or(1 << tid)
	})
	if mask.Load() != 0b1111 {
		t.Errorf("post-resize fork mask = %b, want 1111", mask.Load())
	}
	p.Shutdown()
	if p.LiveWorkers() != 0 {
		t.Errorf("LiveWorkers after shutdown = %d, want 0 (resize leaked a team)", p.LiveWorkers())
	}
}
