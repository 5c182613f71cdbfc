package lock

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// exercise asserts mutual exclusion: n goroutines increment a plain int
// under the lock; any lost update means the lock failed.
func exercise(t *testing.T, l Lock) {
	t.Helper()
	const goroutines, iters = 8, 2000
	counter := 0
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				l.Set()
				counter++
				l.Unset()
			}
		}()
	}
	wg.Wait()
	if counter != goroutines*iters {
		t.Errorf("lost updates: counter = %d, want %d", counter, goroutines*iters)
	}
}

func TestSpinMutualExclusion(t *testing.T)   { exercise(t, &Spin{}) }
func TestTicketMutualExclusion(t *testing.T) { exercise(t, &Ticket{}) }
func TestMutexMutualExclusion(t *testing.T)  { exercise(t, &Mutex{}) }

func TestNewDefaults(t *testing.T) {
	if _, ok := New().(*Spin); !ok {
		t.Error("New() should return a spin lock (libomp default)")
	}
	if _, ok := NewWithHint(HintContended).(*Ticket); !ok {
		t.Error("HintContended should select the ticket lock")
	}
	if _, ok := NewWithHint(HintUncontended).(*Spin); !ok {
		t.Error("HintUncontended should select the spin lock")
	}
	exercise(t, NewWithHint(HintSpeculative))
}

func testTestLock(t *testing.T, l tester) {
	t.Helper()
	if !l.Test() {
		t.Fatal("Test on free lock must succeed")
	}
	if l.Test() {
		t.Fatal("Test on held lock must fail")
	}
	l.Unset()
	if !l.Test() {
		t.Fatal("Test after Unset must succeed")
	}
	l.Unset()
}

func TestSpinTest(t *testing.T)   { testTestLock(t, &Spin{}) }
func TestTicketTest(t *testing.T) { testTestLock(t, &Ticket{}) }
func TestMutexTest(t *testing.T)  { testTestLock(t, &Mutex{}) }

func TestTicketIsFIFO(t *testing.T) {
	// Acquire, queue three waiters in known order, and check they are
	// granted in that order.
	var l Ticket
	l.Set()
	order := make(chan int, 3)
	var started sync.WaitGroup
	for i := 0; i < 3; i++ {
		started.Add(1)
		go func(i int) {
			// Stagger arrivals so ticket order is deterministic.
			time.Sleep(time.Duration(i*20) * time.Millisecond)
			started.Done()
			l.Set()
			order <- i
			l.Unset()
		}(i)
	}
	started.Wait()
	time.Sleep(30 * time.Millisecond) // let the last waiter take its ticket
	l.Unset()
	for want := 0; want < 3; want++ {
		if got := <-order; got != want {
			t.Fatalf("FIFO violated: got %d, want %d", got, want)
		}
	}
}

func TestTestUnderContention(t *testing.T) {
	// omp_test_lock semantics: failed Test must not corrupt lock state.
	var l Spin
	var successes atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if l.Test() {
					successes.Add(1)
					l.Unset()
				}
			}
		}()
	}
	wg.Wait()
	if successes.Load() == 0 {
		t.Error("no Test ever succeeded under contention")
	}
	if !l.Test() {
		t.Error("lock left held after all goroutines released")
	}
}
