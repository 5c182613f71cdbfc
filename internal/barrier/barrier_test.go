package barrier

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/icv"
)

var kinds = []Kind{CentralKind, TreeKind, DisseminationKind}

// checkPhases runs a team of n through `phases` barrier episodes and asserts
// the fundamental barrier property: no participant enters phase p+1 while
// another is still in phase p.
func checkPhases(t *testing.T, b Barrier, n, phases int) {
	t.Helper()
	var inPhase atomic.Int64 // how many have arrived in the current phase
	var violations atomic.Int64
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for p := 0; p < phases; p++ {
				arrived := inPhase.Add(1)
				if arrived > int64(n) {
					violations.Add(1)
				}
				b.Wait(id)
				// Everyone is now between phases. The first thread
				// to leave resets the arrival count for the next
				// phase; do it with a CAS race that only one wins.
				for {
					cur := inPhase.Load()
					if cur == 0 || inPhase.CompareAndSwap(cur, 0) {
						break
					}
				}
				b.Wait(id) // second barrier so the reset settles
			}
		}(id)
	}
	wg.Wait()
	if violations.Load() != 0 {
		t.Errorf("%d participants entered a phase before the previous one drained", violations.Load())
	}
}

func TestBarrierPhaseSeparation(t *testing.T) {
	for _, k := range kinds {
		for _, n := range []int{1, 2, 3, 4, 7, 8, 16} {
			b := New(k, n, icv.PolicyAuto)
			t.Run(k.String()+"/"+string(rune('0'+n%10)), func(t *testing.T) {
				checkPhases(t, b, n, 50)
			})
		}
	}
}

// TestBarrierAllArrive asserts that a barrier phase observes every
// participant's side effect: each thread writes its slot before the barrier
// and validates all slots after.
func TestBarrierAllArrive(t *testing.T) {
	for _, k := range kinds {
		for _, n := range []int{1, 2, 5, 8, 13} {
			b := New(k, n, icv.PolicyAuto)
			slots := make([]atomic.Int64, n)
			var bad atomic.Int64
			var wg sync.WaitGroup
			for id := 0; id < n; id++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					for phase := int64(1); phase <= 30; phase++ {
						slots[id].Store(phase)
						b.Wait(id)
						for j := 0; j < n; j++ {
							if slots[j].Load() < phase {
								bad.Add(1)
							}
						}
						b.Wait(id)
					}
				}(id)
			}
			wg.Wait()
			if bad.Load() != 0 {
				t.Errorf("%v n=%d: %d stale reads after barrier", k, n, bad.Load())
			}
		}
	}
}

func TestSingleParticipantNeverBlocks(t *testing.T) {
	for _, k := range kinds {
		b := New(k, 1, icv.PolicyAuto)
		for i := 0; i < 1000; i++ {
			b.Wait(0)
		}
		if participants(b) != 1 {
			t.Errorf("%v: N = %d", k, participants(b))
		}
	}
}

func TestPassivePolicy(t *testing.T) {
	// Same correctness under the passive wait policy (sleep path).
	for _, k := range kinds {
		b := New(k, 4, icv.PolicyPassive)
		checkPhases(t, b, 4, 10)
	}
}

func TestActivePolicy(t *testing.T) {
	for _, k := range kinds {
		b := New(k, 4, icv.PolicyActive)
		checkPhases(t, b, 4, 10)
	}
}

func TestNewPanicsOnZeroParticipants(t *testing.T) {
	for _, ctor := range []func(){
		func() { NewCentral(0, icv.PolicyAuto) },
		func() { NewTree(0, icv.PolicyAuto) },
		func() { NewDissemination(0, icv.PolicyAuto) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for n=0")
				}
			}()
			ctor()
		}()
	}
}

func TestTreeChildrenCount(t *testing.T) {
	b := NewTree(6, icv.PolicyAuto) // arity 4: node 0 has children 1..4, node 1 has child 5
	if got := b.children(0); got != 4 {
		t.Errorf("children(0) = %d, want 4", got)
	}
	if got := b.children(1); got != 1 {
		t.Errorf("children(1) = %d, want 1", got)
	}
	if got := b.children(5); got != 0 {
		t.Errorf("children(5) = %d, want 0", got)
	}
}

func benchBarrier(b *testing.B, kind Kind, n int) {
	bar := New(kind, n, icv.PolicyAuto)
	var wg sync.WaitGroup
	iters := b.N
	b.ResetTimer()
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				bar.Wait(id)
			}
		}(id)
	}
	wg.Wait()
}

func BenchmarkCentral4(b *testing.B)       { benchBarrier(b, CentralKind, 4) }
func BenchmarkTree4(b *testing.B)          { benchBarrier(b, TreeKind, 4) }
func BenchmarkDissemination4(b *testing.B) { benchBarrier(b, DisseminationKind, 4) }

// queueWork is a Work stub: a mutex-guarded queue of closures.
type queueWork struct {
	mu    sync.Mutex
	items []func()
	ran   atomic.Int64
}

func (q *queueWork) add(fn func()) {
	q.mu.Lock()
	q.items = append(q.items, fn)
	q.mu.Unlock()
}

func (q *queueWork) RunOne(id int) bool {
	q.mu.Lock()
	if len(q.items) == 0 {
		q.mu.Unlock()
		return false
	}
	fn := q.items[0]
	q.items = q.items[:copy(q.items, q.items[1:])]
	q.mu.Unlock()
	fn()
	q.ran.Add(1)
	return true
}

// TestWaitWorkExecutesWhileWaiting holds the last participant back until
// the waiters have drained a work queue: the barrier can only release once
// the waiting participants executed the work, for every algorithm.
func TestWaitWorkExecutesWhileWaiting(t *testing.T) {
	for _, kind := range kinds {
		for _, n := range []int{2, 4} {
			b := New(kind, n, icv.PolicyAuto)
			w := &queueWork{}
			const jobs = 32
			for i := 0; i < jobs; i++ {
				w.add(func() {})
			}
			var wg sync.WaitGroup
			for id := 1; id < n; id++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					b.WaitWork(id, w)
				}(id)
			}
			// Participant 0 arrives only after the queue is empty, so the
			// release provably happens after the waiters did the work.
			for w.ran.Load() < jobs {
				runtime.Gosched()
			}
			b.WaitWork(0, w)
			wg.Wait()
			if got := w.ran.Load(); got != jobs {
				t.Errorf("%v n=%d: ran %d work items, want %d", kind, n, got, jobs)
			}
		}
	}
}

// TestWaitWorkNilIsWait asserts the nil-work degenerate case still
// synchronises (it is what Wait delegates to).
func TestWaitWorkNilIsWait(t *testing.T) {
	for _, kind := range kinds {
		b := New(kind, 3, icv.PolicyAuto)
		checkPhases(t, b, 3, 50)
	}
}

// TestWaitWorkSpawningWork asserts work executed inside the wait may add
// more work (tasks spawning tasks at a barrier) without wedging release.
func TestWaitWorkSpawningWork(t *testing.T) {
	for _, kind := range kinds {
		b := New(kind, 2, icv.PolicyAuto)
		w := &queueWork{}
		var chain atomic.Int64
		var spawn func(depth int) func()
		spawn = func(depth int) func() {
			return func() {
				chain.Add(1)
				if depth > 0 {
					w.add(spawn(depth - 1))
				}
			}
		}
		w.add(spawn(16))
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.WaitWork(1, w)
		}()
		for chain.Load() < 17 {
			runtime.Gosched()
		}
		b.WaitWork(0, w)
		wg.Wait()
		if chain.Load() != 17 {
			t.Errorf("%v: chain ran %d links, want 17", kind, chain.Load())
		}
	}
}
