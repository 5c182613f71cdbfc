package core

import (
	"sync/atomic"
	"testing"

	"repro/internal/icv"
)

func TestForChunksCoversEveryIterationOnce(t *testing.T) {
	for _, opts := range [][]ForOption{
		nil,
		{Schedule(icv.StaticSched, 7)},
		{Schedule(icv.DynamicSched, 16)},
		{Schedule(icv.GuidedSched, 0)},
	} {
		rt := testRuntime(4)
		const n = 1000
		hits := make([]atomic.Int32, n)
		rt.Parallel(func(th *Thread) {
			th.ForChunks(n, func(lo, hi int) {
				if lo < 0 || hi > n || lo >= hi {
					t.Errorf("bad chunk [%d,%d)", lo, hi)
				}
				for i := lo; i < hi; i++ {
					hits[i].Add(1)
				}
			}, opts...)
		})
		for i := range hits {
			if hits[i].Load() != 1 {
				t.Fatalf("iteration %d ran %d times", i, hits[i].Load())
			}
		}
	}
}

func TestForChunksImplicitBarrier(t *testing.T) {
	rt := testRuntime(4)
	var done atomic.Int64
	var violations atomic.Int64
	rt.Parallel(func(th *Thread) {
		th.ForChunks(100, func(lo, hi int) { done.Add(int64(hi - lo)) })
		if done.Load() != 100 {
			violations.Add(1)
		}
	})
	if violations.Load() != 0 {
		t.Error("threads passed ForChunks before completion")
	}
}

func TestForChunksNowaitAndSequence(t *testing.T) {
	rt := testRuntime(4)
	var total atomic.Int64
	rt.Parallel(func(th *Thread) {
		th.ForChunks(50, func(lo, hi int) { total.Add(int64(hi - lo)) }, NoWait())
		th.ForChunks(50, func(lo, hi int) { total.Add(int64(hi - lo)) })
	})
	if total.Load() != 100 {
		t.Errorf("total = %d", total.Load())
	}
}

func TestForChunksSequentialContext(t *testing.T) {
	rt := testRuntime(4)
	calls := 0
	rt.sequentialThread().ForChunks(10, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 10 {
			t.Errorf("sequential chunk [%d,%d)", lo, hi)
		}
	})
	if calls != 1 {
		t.Errorf("sequential ForChunks called body %d times", calls)
	}
	// Zero-trip: body must not run.
	rt.sequentialThread().ForChunks(0, func(lo, hi int) { t.Error("zero-trip ran") })
}

func TestForChunksZeroTripParallel(t *testing.T) {
	rt := testRuntime(4)
	rt.Parallel(func(th *Thread) {
		th.ForChunks(0, func(lo, hi int) { t.Error("zero-trip chunk ran") })
	})
}

func TestForChunksStaticMatchesBlockBounds(t *testing.T) {
	rt := testRuntime(4)
	var got [4][2]int
	rt.Parallel(func(th *Thread) {
		th.ForChunks(103, func(lo, hi int) {
			got[th.Num()] = [2]int{lo, hi}
		})
	})
	// schedule(static) default: one contiguous block per thread.
	prev := 0
	for tid := 0; tid < 4; tid++ {
		if got[tid][0] != prev {
			t.Fatalf("tid %d block %v does not continue from %d", tid, got[tid], prev)
		}
		prev = got[tid][1]
	}
	if prev != 103 {
		t.Fatalf("blocks end at %d", prev)
	}
}
