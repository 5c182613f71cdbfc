package kmp

import (
	"runtime"
	"sync/atomic"
	"unsafe"
)

// Sharded hot-team pool.
//
// The original hot-team cache kept ONE top-level parallel slot and one
// serial slot per pool, which is exactly right for the paper's workloads (a
// handful of long-lived regions forked from one goroutine) and exactly wrong
// for a serving process, where thousands of small, independent parallel
// regions fork concurrently from arbitrary goroutines: every fork Swaps the
// same slot, at most one forker wins the cached team, and every loser builds
// a cold team and dismantles it at join — lock-free, but fully serialised
// worker churn.
//
// The multi-tenant path shards the cache: a shardSet holds 2^k cache-line
// padded slots (parallel + serial each), and a forking goroutine picks its
// "home" shard by a cheap goroutine-affinity hash of its stack address.
// Repeated forks from one goroutine hit the same shard and keep the
// single-tenant fast path: one Swap claims the team, one CAS reinstalls it,
// zero allocations. Concurrent forks from unrelated goroutines land on
// different shards and stop contending entirely.
//
// Two work-stealing moves keep the shards balanced under skewed traffic:
//   - on a home miss (empty slot), the forker sweeps the other shards and
//     steals a cached team of matching shape before building cold;
//   - at join, a forker whose home slot was taken offers the team to any
//     empty sibling slot before dismantling it.
//
// The hash is affinity, not identity: two goroutines may share a shard
// (they then race on one slot, degrading to the old single-slot behaviour
// for that pair) and a goroutine whose stack moved may change shards. Both
// are performance events, never correctness events — a slot hands a team to
// exactly one forker via Swap regardless of who hashes where, and in
// checked builds (race detector or the gompcheck tag; see guard_check.go)
// the Team.running guard in runTeam turns any double-claim bug into a loud
// panic instead of corrupted state.

// maxTeamShards bounds the shard table; beyond this the slots outnumber any
// plausible GOMAXPROCS and only dilute the steal sweep.
const maxTeamShards = 64

// hotShard is one shard of the top-level hot-team cache: a parallel slot
// and a serial slot (so a tenant alternating if(false) and parallel regions
// does not evict its own hot team), padded so neighbouring shards' Swap/CAS
// traffic stays off each other's cache lines.
type hotShard struct {
	parallel atomic.Pointer[Team]
	serial   atomic.Pointer[Team]
	_        [112]byte
}

// slotFor returns the shard slot caching teams of size n.
func (s *hotShard) slotFor(n int) *atomic.Pointer[Team] {
	if n == 1 {
		return &s.serial
	}
	return &s.parallel
}

// shardSet is an immutable shard table; Pool.shards swaps whole sets so a
// resize (SetShards) never races slot indexing.
type shardSet struct {
	mask  uintptr // len(slots)-1; len is a power of two
	slots []hotShard
}

// newShardSet builds a table of n shards, rounded up to a power of two and
// clamped to [1, maxTeamShards]. n <= 0 sizes the table automatically from
// GOMAXPROCS (one shard per P is enough to de-contend forkers that can
// actually run concurrently).
func newShardSet(n int) *shardSet {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > maxTeamShards {
		n = maxTeamShards
	}
	size := 1
	for size < n {
		size <<= 1
	}
	return &shardSet{mask: uintptr(size - 1), slots: make([]hotShard, size)}
}

// homeIndex hashes the calling goroutine to its home shard, given the
// address of a local in the forking frame. Goroutine stacks are distinct,
// span-allocated and at least 2 KiB apart, so that address dropped past the
// low (within-stack) bits is a cheap goroutine-affine value; a Fibonacci
// multiply spreads consecutive stack spans across the table. Different
// locals of one goroutine may straddle the 1 KiB granule, so a fork hashes
// one anchor slot only, and threads each index it computes through a whole
// claim-and-steal sweep or reinstall sweep. The arithmetic is done in uint64
// so the constant is legal on 32-bit targets too.
func (ss *shardSet) homeIndex(anchor unsafe.Pointer) uintptr {
	h := uint64(uintptr(anchor)>>10) * 0x9E3779B97F4A7C15
	return uintptr(h>>32) & ss.mask
}

// initShards installs the pool's shard table (called from NewPool).
func (p *Pool) initShards(n int) { p.shards.Store(newShardSet(n)) }

// drainShards dismantles every team cached in a shard table.
func drainShards(p *Pool, ss *shardSet) {
	for i := range ss.slots {
		s := &ss.slots[i]
		if tm := s.parallel.Swap(nil); tm != nil {
			p.dismantle(tm)
		}
		if tm := s.serial.Swap(nil); tm != nil {
			p.dismantle(tm)
		}
	}
}

// matchesShape reports whether a cached team can serve a fork of size n
// under the pool's current wait policy.
func (p *Pool) matchesShape(tm *Team, n int) bool {
	return tm.n == n && tm.waitPolicy == p.icvs.Wait
}

// topTeamFor returns a ready team of size n for a top-level fork: the home
// shard's cached team when its shape matches, a matching team stolen from a
// sibling shard on a home miss, or a cold build.
func (p *Pool) topTeamFor(ss *shardSet, hi uintptr, n int) *Team {
	slot := ss.slots[hi].slotFor(n)
	if tm := slot.Swap(nil); tm != nil {
		if p.matchesShape(tm, n) {
			tm.reset()
			return tm
		}
		// Shape changed under this tenant (new size, ICV or barrier-kind
		// change): rebuild, exactly as the single-slot cache did.
		p.dismantle(tm)
	} else if ss.mask != 0 {
		if tm := p.stealTeam(ss, hi, n); tm != nil {
			tm.reset()
			return tm
		}
	}
	activeLevel := 0
	if n > 1 {
		activeLevel = 1
	}
	return p.buildTeam(nil, n, 1, activeLevel)
}

// stealTeam sweeps the sibling shards for a cached team of matching shape.
// A mismatched team is put back rather than dismantled — it is some other
// tenant's hot team and this forker has no claim on its shape.
func (p *Pool) stealTeam(ss *shardSet, hi uintptr, n int) *Team {
	for i := uintptr(1); i <= ss.mask; i++ {
		s := &ss.slots[(hi+i)&ss.mask]
		slot := s.slotFor(n)
		if slot.Load() == nil {
			continue
		}
		tm := slot.Swap(nil)
		if tm == nil {
			continue
		}
		if p.matchesShape(tm, n) {
			p.shardSteals.Add(1)
			return tm
		}
		if !slot.CompareAndSwap(nil, tm) {
			// Another fork installed meanwhile; this one has nowhere to go.
			p.dismantle(tm)
		}
	}
	return nil
}

// reinstallTop offers a joined top-level team back to the forker's home
// slot, then — if another team was cached there meanwhile — to any empty
// sibling slot, and dismantles it only when the whole table is full.
func (p *Pool) reinstallTop(ss *shardSet, hi uintptr, tm *Team) {
	if ss.slots[hi].slotFor(tm.n).CompareAndSwap(nil, tm) {
		return
	}
	for i := uintptr(1); i <= ss.mask; i++ {
		s := &ss.slots[(hi+i)&ss.mask]
		slot := s.slotFor(tm.n)
		if slot.Load() == nil && slot.CompareAndSwap(nil, tm) {
			return
		}
	}
	p.dismantle(tm)
}

// ShardSteals reports how many forks were served by stealing a cached team
// from a sibling shard (observability/test hook).
func (p *Pool) ShardSteals() int64 { return p.shardSteals.Load() }
