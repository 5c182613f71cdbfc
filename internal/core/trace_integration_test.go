package core

import (
	"testing"

	"repro/internal/icv"
	"repro/internal/reduction"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Tracing integration: the runtime must emit the OMPT-analog event stream.
// These tests serialise on the global trace handler.

func withRecorder(t *testing.T, rt *Runtime, fn func(r *trace.Recorder)) {
	t.Helper()
	r := trace.NewRecorder()
	trace.Set(r.Handle)
	defer trace.Clear()
	// Drain trailing worker barrier exits before the next test swaps the
	// global handler, so no emission crosses recorder boundaries.
	defer rt.Pool().WaitQuiescent()
	fn(r)
}

func TestTraceRegionForkJoin(t *testing.T) {
	rt := testRuntime(4)
	withRecorder(t, rt, func(r *trace.Recorder) {
		rt.Parallel(func(th *Thread) {})
		if r.Count(trace.EvRegionFork) != 1 || r.Count(trace.EvRegionJoin) != 1 {
			t.Errorf("fork/join = %d/%d", r.Count(trace.EvRegionFork), r.Count(trace.EvRegionJoin))
		}
		recs := r.Records()
		if recs[0].Ev != trace.EvRegionFork || recs[0].Arg != 4 {
			t.Errorf("first record %+v, want fork with team size 4", recs[0])
		}
	})
}

func TestTraceBarrierPairs(t *testing.T) {
	rt := testRuntime(3)
	withRecorder(t, rt, func(r *trace.Recorder) {
		rt.Parallel(func(th *Thread) { th.Barrier() })
		// The join is the region-end barrier: Fork returns once all members
		// have arrived, but workers may still be draining the barrier exit
		// (and its trace emission). Settle the pool before counting.
		rt.Pool().WaitQuiescent()
		// One explicit barrier per member plus the region-end barriers;
		// enters and exits must balance.
		if r.Count(trace.EvBarrierEnter) == 0 {
			t.Error("no barrier events")
		}
		if r.Count(trace.EvBarrierEnter) != r.Count(trace.EvBarrierExit) {
			t.Errorf("unbalanced barrier events: %d enter, %d exit",
				r.Count(trace.EvBarrierEnter), r.Count(trace.EvBarrierExit))
		}
	})
}

// TestTraceLoopChunksCoverTripCount: every executed chunk emits exactly one
// EvLoopChunk carrying its length, on the ring-scheduled path and on the
// static path that computes chunks in the calling thread (block and
// chunked), for each loop entry point. The expected chunks are the
// non-empty ones sched.New's scheduler deals.
func TestTraceLoopChunksCoverTripCount(t *testing.T) {
	const n = 4
	rt := testRuntime(n)
	entries := map[string]func(th *Thread, trip int, opt ForOption){
		"For": func(th *Thread, trip int, opt ForOption) { th.For(trip, func(int) {}, opt) },
		"ForLoop": func(th *Thread, trip int, opt ForOption) {
			th.ForLoop(sched.Loop{Begin: int64(trip), End: 0, Step: -1}, func(int64) {}, opt)
		},
		"ForChunks": func(th *Thread, trip int, opt ForOption) { th.ForChunks(trip, func(int, int) {}, opt) },
		"ReduceFor": func(th *Thread, trip int, opt ForOption) {
			ReduceFor(th, trip, reduction.Sum, func(i int, acc int64) int64 { return acc + 1 }, opt)
		},
	}
	withRecorder(t, rt, func(r *trace.Recorder) {
		for _, desc := range []icv.Schedule{{Kind: icv.DynamicSched, Chunk: 7}, {Kind: icv.StaticSched}, {Kind: icv.StaticSched, Chunk: 7}} {
			for _, trip := range []int{3, 100} {
				var wantChunks int
				s := sched.New(desc, int64(trip), n)
				for tid := 0; tid < n; tid++ {
					for _, ok := s.Next(tid); ok; _, ok = s.Next(tid) {
						wantChunks++
					}
				}
				for name, run := range entries {
					start := len(r.Records())
					rt.Parallel(func(th *Thread) { run(th, trip, Schedule(desc.Kind, desc.Chunk)) })
					var chunks int
					var total int64
					for _, rec := range r.Records()[start:] {
						if rec.Ev == trace.EvLoopChunk {
							chunks++
							total += rec.Arg
						}
					}
					if chunks != wantChunks || total != int64(trip) {
						t.Errorf("%s %v trip %d: %d chunk events summing to %d, want %d summing to %d",
							name, desc, trip, chunks, total, wantChunks, trip)
					}
				}
			}
		}
	})
}

func TestTraceTasks(t *testing.T) {
	rt := testRuntime(2)
	withRecorder(t, rt, func(r *trace.Recorder) {
		rt.Parallel(func(th *Thread) {
			if th.Num() == 0 {
				for i := 0; i < 10; i++ {
					th.Task(func(*Thread) {})
				}
			}
		})
		if r.Count(trace.EvTaskCreate) != 10 || r.Count(trace.EvTaskRun) != 10 {
			t.Errorf("task events create=%d run=%d", r.Count(trace.EvTaskCreate), r.Count(trace.EvTaskRun))
		}
	})
}

func TestTraceCritical(t *testing.T) {
	rt := testRuntime(2)
	withRecorder(t, rt, func(r *trace.Recorder) {
		rt.Parallel(func(th *Thread) {
			th.Critical("x", func() {})
		})
		if r.Count(trace.EvCriticalEnter) != 2 || r.Count(trace.EvCriticalExit) != 2 {
			t.Errorf("critical events %d/%d", r.Count(trace.EvCriticalEnter), r.Count(trace.EvCriticalExit))
		}
	})
}

func TestNoTraceOverheadPathStillCorrect(t *testing.T) {
	// With tracing disabled everything behaves identically.
	trace.Clear()
	rt := testRuntime(4)
	var sum int64
	rt.Parallel(func(th *Thread) {
		s := ReduceFor(th, 100, reduction.Sum, func(i int, acc int64) int64 { return acc + int64(i) })
		th.Master(func() { sum = s })
	})
	if sum != 4950 {
		t.Errorf("sum = %d", sum)
	}
}

// TestTraceDoacrossEvents: sink waits and posts must reach the OMPT-analog
// stream. A 2-thread chain guarantees at least one cross-thread sink wait
// on an in-space iteration; every iteration posts exactly once (explicit
// and auto-post are one event).
func TestTraceDoacrossEvents(t *testing.T) {
	rt := testRuntime(2)
	const n = 32
	withRecorder(t, rt, func(r *trace.Recorder) {
		rt.Parallel(func(th *Thread) {
			th.ForDoacross([]sched.Loop{{Begin: 0, End: n, Step: 1}}, func(ix []int64, d *DoacrossCtx) {
				d.Wait(ix[0] - 1)
				d.Post()
			}, Schedule(icv.StaticSched, 0))
		})
		rt.Pool().WaitQuiescent()
		if got := r.Count(trace.EvDoacrossPost); got != n {
			t.Errorf("doacross-post events = %d, want %d", got, n)
		}
		// In-space sinks: iterations 1..n-1 (iteration 0's sink is
		// vacuous and emits nothing).
		if got := r.Count(trace.EvDoacrossWait); got != n-1 {
			t.Errorf("doacross-wait events = %d, want %d", got, n-1)
		}
	})
}
