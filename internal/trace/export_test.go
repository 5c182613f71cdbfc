package trace

// Reset clears the log and tallies.
func (r *Recorder) Reset() {
	r.mu.Lock()
	r.records = r.records[:0]
	r.counts = [numEvents]int64{}
	r.mu.Unlock()
}
