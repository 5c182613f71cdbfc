package task

// N returns the team size the pool serves.
func (p *Pool) N() int { return p.n }

// Outstanding returns the number of tasks spawned-but-unfinished, including
// tasks still waiting on dependencies. Zero means the pool is quiescent *at
// this instant*; callers coordinating shutdown must ensure no thread can
// still spawn (the barrier protocol does).
func (p *Pool) Outstanding() int64 { return p.outstanding.Load() }
