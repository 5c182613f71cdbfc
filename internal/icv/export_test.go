package icv

// NumThreadsAt returns the nthreads-var for a given nesting level, applying
// the OpenMP rule that levels beyond the list reuse the final entry.
func (s *Set) NumThreadsAt(level int) int { return NumThreadsForLevel(s.NumThreads, level) }
