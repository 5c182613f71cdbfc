package kmp

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/icv"
	"repro/internal/task"
)

func fixedICVs(n int) *icv.Set {
	s := icv.Default()
	s.NumThreads = []int{n}
	return s
}

func TestForkRunsAllMembers(t *testing.T) {
	p := NewPool(fixedICVs(4))
	var mask atomic.Int64
	p.Fork(nil, ForkSpec{}, func(tm *Team, tid int) {
		mask.Or(1 << tid)
		if tm.N() != 4 {
			t.Errorf("team size %d", tm.N())
		}
	})
	if mask.Load() != 0b1111 {
		t.Errorf("member mask = %b, want 1111", mask.Load())
	}
}

func TestMasterIsMemberZero(t *testing.T) {
	p := NewPool(fixedICVs(4))
	var masterGTID atomic.Int64
	masterGTID.Store(-1)
	p.Fork(nil, ForkSpec{}, func(tm *Team, tid int) {
		if tid == 0 {
			masterGTID.Store(int64(tm.GTID(0)))
		}
	})
	if masterGTID.Load() != 0 {
		t.Errorf("master gtid = %d, want 0 (the forking goroutine)", masterGTID.Load())
	}
}

func TestTeamSizeRules(t *testing.T) {
	icvs := fixedICVs(8)
	icvs.MaxActiveLevels = 1
	icvs.ThreadLimit = 6
	p := NewPool(icvs)

	if n := p.TeamSize(nil, ForkSpec{}); n != 6 {
		t.Errorf("ICV 8 capped by limit 6: got %d", n)
	}
	if n := p.TeamSize(nil, ForkSpec{NumThreads: 3}); n != 3 {
		t.Errorf("num_threads(3): got %d", n)
	}
	if n := p.TeamSize(nil, ForkSpec{Serial: true}); n != 1 {
		t.Errorf("if(false): got %d", n)
	}
	// Simulate an active nested context: active level already 1.
	parent := &Team{level: 1, activeLevel: 1}
	if n := p.TeamSize(parent, ForkSpec{NumThreads: 4}); n != 1 {
		t.Errorf("nested beyond max-active-levels should serialise: got %d", n)
	}
	icvs.MaxActiveLevels = 2
	if n := p.TeamSize(parent, ForkSpec{NumThreads: 4}); n != 4 {
		t.Errorf("nested within max-active-levels: got %d", n)
	}
}

func TestSerialisedRegionRunsInline(t *testing.T) {
	p := NewPool(fixedICVs(4))
	ran := false
	p.Fork(nil, ForkSpec{Serial: true}, func(tm *Team, tid int) {
		ran = tid == 0 && tm.N() == 1 // plain write: inline means same goroutine
	})
	if !ran {
		t.Error("serialised region did not run inline as tid 0")
	}
}

func TestNestedFork(t *testing.T) {
	icvs := fixedICVs(2)
	icvs.MaxActiveLevels = 2
	p := NewPool(icvs)
	var innerCount atomic.Int64
	p.Fork(nil, ForkSpec{}, func(outer *Team, otid int) {
		p.ForkFrom(outer, otid, ForkSpec{NumThreads: 3}, func(inner *Team, itid int) {
			innerCount.Add(1)
			if inner.Level() != 2 {
				t.Errorf("inner level = %d", inner.Level())
			}
			if inner.Parent() != outer {
				t.Error("inner parent wrong")
			}
		})
	})
	if innerCount.Load() != 2*3 {
		t.Errorf("inner executions = %d, want 6", innerCount.Load())
	}
}

func TestHotTeamReuse(t *testing.T) {
	p := NewPool(fixedICVs(4))
	p.Fork(nil, ForkSpec{}, func(*Team, int) {})
	created := p.LiveWorkers()
	for i := 0; i < 10; i++ {
		p.Fork(nil, ForkSpec{}, func(*Team, int) {})
	}
	if p.LiveWorkers() != created {
		t.Errorf("workers grew from %d to %d across identical forks", created, p.LiveWorkers())
	}
	// The workers stay bound to the cached hot team between regions — they
	// are reserved, not parked on the free list.
	if p.IdleWorkers() != 0 {
		t.Errorf("idle = %d, want 0 (workers should stay bound to the hot team)", p.IdleWorkers())
	}
	p.Shutdown()
	if p.LiveWorkers() != 0 {
		t.Errorf("live after shutdown = %d", p.LiveWorkers())
	}
}

func TestTeamBarrierSynchronises(t *testing.T) {
	p := NewPool(fixedICVs(4))
	var before, violations atomic.Int64
	p.Fork(nil, ForkSpec{}, func(tm *Team, tid int) {
		before.Add(1)
		tm.Barrier(tid)
		if before.Load() != 4 {
			violations.Add(1)
		}
	})
	if violations.Load() != 0 {
		t.Errorf("%d threads passed barrier early", violations.Load())
	}
}

func TestBarrierDrainsTasksBeforeRelease(t *testing.T) {
	p := NewPool(fixedICVs(4))
	var ran atomic.Int64
	var missed atomic.Int64
	p.Fork(nil, ForkSpec{}, func(tm *Team, tid int) {
		if tid == 0 {
			for i := 0; i < 50; i++ {
				tm.Tasks().Spawn(tid, nil, nil, func(*task.Unit) { ran.Add(1) })
			}
		}
		tm.Barrier(tid)
		// Barriers are task scheduling points: every explicit task
		// created before the barrier must be complete after it.
		if ran.Load() != 50 {
			missed.Add(1)
		}
	})
	if missed.Load() != 0 {
		t.Errorf("%d threads saw incomplete tasks after barrier (ran=%d)", missed.Load(), ran.Load())
	}
}

func TestConstructLifecycle(t *testing.T) {
	p := NewPool(fixedICVs(4))
	p.Fork(nil, ForkSpec{}, func(tm *Team, tid int) {
		e := tm.Construct(1)
		if e == nil {
			t.Error("nil entry")
		}
		e2 := tm.Construct(1)
		if e != e2 {
			t.Error("same seq must give same entry")
		}
		tm.Barrier(tid)
		tm.Retire(1, e)
		tm.Barrier(tid)
		if tid == 0 && tm.LiveConstructs() != 0 {
			t.Errorf("constructs leaked: %d", tm.LiveConstructs())
		}
	})
}

func TestTrySingleExactlyOneWinner(t *testing.T) {
	p := NewPool(fixedICVs(8))
	var winners atomic.Int64
	p.Fork(nil, ForkSpec{}, func(tm *Team, tid int) {
		if tm.TrySingle(1) {
			winners.Add(1)
		}
		tm.Barrier(tid)
	})
	if winners.Load() != 1 {
		t.Errorf("single winners = %d", winners.Load())
	}
}

func TestNextSectionDispensesEachOnce(t *testing.T) {
	p := NewPool(fixedICVs(4))
	const total = 10
	var claims [total]atomic.Int64
	p.Fork(nil, ForkSpec{}, func(tm *Team, tid int) {
		e := tm.Construct(1)
		for {
			idx, ok := e.NextSection(total)
			if !ok {
				break
			}
			claims[idx].Add(1)
		}
	})
	for i := range claims {
		if claims[i].Load() != 1 {
			t.Errorf("section %d claimed %d times", i, claims[i].Load())
		}
	}
}

func TestOrderedTurns(t *testing.T) {
	p := NewPool(fixedICVs(4))
	var order []int64
	p.Fork(nil, ForkSpec{}, func(tm *Team, tid int) {
		e := tm.Construct(1)
		// Each thread owns iterations tid, tid+4, ... of a 12-iteration loop.
		for k := int64(tid); k < 12; k += 4 {
			e.WaitOrderedTurn(k, tm)
			order = append(order, k) // safe: ordered region is serial
			e.FinishOrdered(k)
		}
		tm.Barrier(tid)
	})
	for i, k := range order {
		if k != int64(i) {
			t.Fatalf("ordered sequence %v", order)
		}
	}
}

func TestCopyPrivate(t *testing.T) {
	p := NewPool(fixedICVs(4))
	var got [4]int
	p.Fork(nil, ForkSpec{}, func(tm *Team, tid int) {
		e := tm.Construct(1)
		if tm.TrySingle(1) {
			e.SetCopyPrivate(42)
		}
		got[tid] = e.CopyPrivate().(int)
		tm.Barrier(tid)
	})
	for tid, v := range got {
		if v != 42 {
			t.Errorf("tid %d got %d", tid, v)
		}
	}
}

func TestCancellation(t *testing.T) {
	p := NewPool(fixedICVs(4))
	var after atomic.Int64
	p.Fork(nil, ForkSpec{}, func(tm *Team, tid int) {
		if tid == 1 {
			tm.Cancel()
		}
		tm.Barrier(tid)
		if !tm.Cancelled() {
			after.Add(1)
		}
	})
	if after.Load() != 0 {
		t.Errorf("%d threads missed cancellation after barrier", after.Load())
	}
}

func TestNilICVsUsesDefaults(t *testing.T) {
	p := NewPool(nil)
	if p.ICVs() == nil {
		t.Fatal("nil ICVs")
	}
	ran := false
	p.Fork(nil, ForkSpec{NumThreads: 1}, func(tm *Team, tid int) { ran = true })
	if !ran {
		t.Error("fork with default ICVs failed")
	}
}

// TestWSEntryReusesStealScheduler: the worksharing ring must recycle a
// cached steal scheduler across construct tenants (Reset in place, same
// instance) exactly as it does for the shared-cursor kinds, so steady-state
// nonmonotonic loops stay allocation-free.
func TestWSEntryReusesStealScheduler(t *testing.T) {
	var e WSEntry
	desc := icv.Schedule{Kind: icv.StealSched, Chunk: 2}
	first := e.LoopSched(desc, 100, 4)
	for tid := 0; tid < 4; tid++ {
		for {
			if _, ok := first.Next(tid); !ok {
				break
			}
		}
	}
	e.recycle() // the last retiring thread's hand-off
	second := e.LoopSched(desc, 50, 4)
	if first != second {
		t.Error("steal scheduler was rebuilt instead of reset in place")
	}
	total := int64(0)
	for tid := 0; tid < 4; tid++ {
		for {
			c, ok := second.Next(tid)
			if !ok {
				break
			}
			total += c.End - c.Begin
		}
	}
	if total != 50 {
		t.Errorf("recycled steal scheduler covered %d iterations, want 50", total)
	}
}

// TestForkRejectsParent: Fork forks top-level teams only; a nested fork
// must name the forking member through ForkFrom.
func TestForkRejectsParent(t *testing.T) {
	p := NewPool(fixedICVs(2))
	p.Fork(nil, ForkSpec{}, func(outer *Team, otid int) {
		if otid != 0 {
			return
		}
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "ForkFrom") {
				t.Errorf("Fork(parent, ...) recovered %v, want a panic naming ForkFrom", r)
			}
		}()
		p.Fork(outer, ForkSpec{NumThreads: 1}, func(*Team, int) {})
	})
}
