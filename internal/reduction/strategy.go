package reduction

import (
	"sync"

	"repro/internal/atomicops"
)

// Strategy names a reduction implementation for the A3 ablation: how partial
// results from team threads reach the shared result.
type Strategy int

const (
	// StrategyPartials uses padded per-thread partials combined after a
	// barrier — the libomp default and the runtime's default.
	StrategyPartials Strategy = iota
	// StrategyAtomic updates a shared atomic cell on every contribution.
	StrategyAtomic
	// StrategyCritical serialises contributions through one mutex.
	StrategyCritical
)

// SharedFloat64 is a reduction sink usable from any strategy; the ablation
// benchmark drives all three through this interface.
type SharedFloat64 interface {
	// Contribute folds v into the reduction from thread tid.
	Contribute(tid int, v float64)
}

// NewSharedFloat64 builds a float64 sum reduction sink for n threads using
// the given strategy.
func NewSharedFloat64(strategy Strategy, op Op, n int) SharedFloat64 {
	switch strategy {
	case StrategyAtomic:
		if op != Sum {
			panic("reduction: atomic strategy supports Sum only")
		}
		return &atomicFloat64{}
	case StrategyCritical:
		return &criticalFloat64{op: op, acc: Identity[float64](op)}
	default:
		return &partialsFloat64{acc: NewAccumulator[float64](op, n)}
	}
}

type partialsFloat64 struct{ acc *Accumulator[float64] }

func (p *partialsFloat64) Contribute(tid int, v float64) { p.acc.Update(tid, v) }

type atomicFloat64 struct{ cell atomicops.Float64 }

func (a *atomicFloat64) Contribute(_ int, v float64) { a.cell.Add(v) }

type criticalFloat64 struct {
	mu  sync.Mutex
	op  Op
	acc float64
}

func (c *criticalFloat64) Contribute(_ int, v float64) {
	c.mu.Lock()
	c.acc = Combine(c.op, c.acc, v)
	c.mu.Unlock()
}
