package sched

// Nest is a perfectly nested collection of canonical loops flattened into a
// single logical iteration space — the loop-collapsing transformation of
// the collapse(n) clause. The combined space enumerates the nest in its
// sequential execution order (outermost loop varies slowest), so logical
// iteration k of the Nest corresponds to one execution of the innermost
// body; Delinearize recovers each level's loop-variable value from k.
type Nest struct {
	loops []Loop
	trips []int64
	total int64
}

// NewNest builds the flattened space for the given loops, outermost first.
// It panics if the combined trip count overflows int64 (a nest of that size
// could never be executed anyway).
func NewNest(loops ...Loop) Nest {
	n := Nest{loops: loops, trips: make([]int64, len(loops))}
	n.total = NestTrips(loops, n.trips)
	return n
}

// Depth returns the number of collapsed loops.
func (n *Nest) Depth() int { return len(n.loops) }

// TripCount returns the product of the per-level trip counts.
func (n *Nest) TripCount() int64 { return n.total }

// Delinearize maps logical iteration k of the flattened space back to the
// per-level loop-variable values, filling ix (which must have Depth
// elements): ix[0] is the outermost loop's variable value.
func (n *Nest) Delinearize(k int64, ix []int64) {
	DelinearizeNest(n.loops, n.trips, k, ix)
}
