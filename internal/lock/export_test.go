package lock

// Hint mirrors omp_sync_hint for NewWithHint.
type Hint int

const (
	// HintNone requests the default lock.
	HintNone Hint = iota
	// HintUncontended optimises for rare contention (spin lock).
	HintUncontended
	// HintContended optimises for heavy contention (ticket lock).
	HintContended
	// HintSpeculative and HintNonSpeculative are accepted for API
	// completeness; Go exposes no TSX, so both select the default.
	HintSpeculative
	HintNonSpeculative
)

// NewWithHint returns a lock optimised per omp_init_lock_with_hint.
func NewWithHint(h Hint) Lock {
	switch h {
	case HintContended:
		return &Ticket{}
	case HintUncontended:
		return &Spin{}
	default:
		return &Spin{}
	}
}

// tester is a Lock with omp_test_lock's non-blocking acquire.
type tester interface {
	Lock
	// Test attempts to acquire without blocking and reports success.
	Test() bool
}

// Test tries to acquire the lock without blocking.
func (l *Spin) Test() bool { return l.state.CompareAndSwap(0, 1) }

// Test tries to take the lock only if nobody is queued ahead.
func (l *Ticket) Test() bool {
	g := l.grant.Load()
	return l.next.CompareAndSwap(g, g+1)
}

// Test tries to acquire the lock without blocking.
func (l *Mutex) Test() bool { return l.mu.TryLock() }
