package reduction

// Set overwrites tid's partial.
func (a *Accumulator[T]) Set(tid int, v T) { a.slots[tid*slotStride] = v }

// Get returns tid's current partial.
func (a *Accumulator[T]) Get(tid int) T { return a.slots[tid*slotStride] }

// ReduceInto combines the reduction result with the original variable value,
// implementing the spec rule that the reduction result is combined with the
// pre-construct value of the list item.
func (a *Accumulator[T]) ReduceInto(orig T) T { return Combine(a.op, orig, a.Reduce()) }

// String returns the strategy name.
func (s Strategy) String() string {
	switch s {
	case StrategyAtomic:
		return "atomic"
	case StrategyCritical:
		return "critical"
	default:
		return "partials"
	}
}

func (p *partialsFloat64) Result() float64 { return p.acc.Reduce() }

func (a *atomicFloat64) Result() float64 { return a.cell.Load() }

func (c *criticalFloat64) Result() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.acc
}

// result returns a sink's combined value; call only after all
// contributions are complete.
func result(s SharedFloat64) float64 { return s.(interface{ Result() float64 }).Result() }
