// Package lock implements the plain OpenMP lock (omp_set_lock /
// omp_unset_lock, OpenMP 5.2 section 18.9) on top of Go primitives; the
// runtime's named critical sections are built on it.
//
// Three implementations are provided. Spin is a test-and-test-and-set lock
// with exponential backoff — the uncontended fast path libomp uses. Ticket
// is a FIFO-fair lock matching libomp's queuing locks. Mutex adapts
// sync.Mutex for the passive wait policy.
package lock

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Lock is the plain (non-nestable) OpenMP lock interface.
type Lock interface {
	// Set acquires the lock, blocking until available (omp_set_lock).
	Set()
	// Unset releases the lock (omp_unset_lock).
	Unset()
}

// New returns the default lock implementation (a spin lock, matching the
// libomp default for omp_init_lock).
func New() Lock { return &Spin{} }

// Spin is a test-and-test-and-set spin lock with bounded exponential backoff.
// The zero value is an unlocked lock.
type Spin struct {
	state atomic.Uint32
}

// Set acquires the lock.
func (l *Spin) Set() {
	for {
		if l.state.CompareAndSwap(0, 1) {
			return
		}
		// Test-and-test-and-set: spin reading before retrying the CAS.
		// When goroutines outnumber processors, spinning steals cycles
		// from the holder, so yield immediately (libomp's rule).
		yieldEvery := 64
		if runtime.GOMAXPROCS(0) == 1 {
			yieldEvery = 1
		}
		spins := 0
		for l.state.Load() != 0 {
			spins++
			if spins%yieldEvery == 0 {
				runtime.Gosched()
			}
		}
	}
}

// Unset releases the lock. Releasing an unheld Spin lock is undefined
// behaviour in OpenMP; here it simply marks the lock free.
func (l *Spin) Unset() { l.state.Store(0) }

// Ticket is a FIFO-fair ticket lock: acquirers take a ticket and wait for
// the grant counter to reach it. The zero value is an unlocked lock.
type Ticket struct {
	next  atomic.Uint64
	grant atomic.Uint64
}

// Set acquires the lock in FIFO order.
func (l *Ticket) Set() {
	ticket := l.next.Add(1) - 1
	yieldEvery := 32
	if runtime.GOMAXPROCS(0) == 1 {
		yieldEvery = 1
	}
	spins := 0
	for l.grant.Load() != ticket {
		spins++
		if spins%yieldEvery == 0 {
			runtime.Gosched()
		}
	}
}

// Unset releases the lock, granting the next ticket.
func (l *Ticket) Unset() { l.grant.Add(1) }

// Mutex adapts sync.Mutex to the Lock interface; this is the passive
// wait-policy implementation (threads sleep instead of spinning).
type Mutex struct {
	mu sync.Mutex
}

// Set acquires the lock.
func (l *Mutex) Set() { l.mu.Lock() }

// Unset releases the lock.
func (l *Mutex) Unset() { l.mu.Unlock() }
