package kmp

// Parent returns the enclosing team, or nil at the outermost level.
func (t *Team) Parent() *Team { return t.parent }

// LiveConstructs reports the number of construct entries some thread has
// retired from but whose slowest thread is still inside (0 means the ring
// is quiescent).
func (t *Team) LiveConstructs() int {
	live := 0
	for j := range t.ws.entries {
		if t.ws.entries[j].retired.Load() != 0 {
			live++
		}
	}
	return live
}

// SetShards resizes the hot-team shard table (the GOMP_TEAM_SHARDS
// environment variable sets the initial size). Cached teams of the old
// table are dismantled. Resizing is not serialised against in-flight forks
// — a fork racing the swap can reinstall its team into the retired table,
// stranding those workers on a leaked team — so call it only on a quiescent
// pool, as the tests do between phases.
func (p *Pool) SetShards(n int) {
	old := p.shards.Swap(newShardSet(n))
	if old != nil {
		drainShards(p, old)
	}
}

// Shards returns the current shard count.
func (p *Pool) Shards() int {
	return len(p.shards.Load().slots)
}
