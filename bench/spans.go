package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// span is one timed call from the benchmark into a layer's public function.
// Start and End are nanoseconds since the tracer was created; Parent indexes
// the enclosing span on the same lane (-1 for a root); Rep is the workload
// repetition the call belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Rep    int    `json:"rep"`
}

// tracer is the traced run's span store: spans stay in memory, one lane per
// goroutine that calls into the program, and are written out once at exit.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	lanes []*lane
	// events counts the runtime's own trace events (internal/trace) while
	// the traced pass runs; argSum adds up their payloads (bytes for the
	// map events).
	events [32]atomic.Int64
	argSum [32]atomic.Int64
}

// lane is the span stack of one goroutine; it is not shared.
type lane struct {
	tr    *tracer
	spans []span
	open  []int
	rep   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (tr *tracer) newLane() *lane {
	l := &lane{tr: tr}
	tr.mu.Lock()
	tr.lanes = append(tr.lanes, l)
	tr.mu.Unlock()
	return l
}

func (l *lane) begin(name string) int {
	parent := -1
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	l.spans = append(l.spans, span{Name: name, Start: int64(time.Since(l.tr.t0)), Parent: parent, Rep: l.rep})
	idx := len(l.spans) - 1
	l.open = append(l.open, idx)
	return idx
}

func (l *lane) end(idx int) {
	l.spans[idx].End = int64(time.Since(l.tr.t0))
	l.open = l.open[:len(l.open)-1]
}

// handle is the internal/trace handler of the traced pass. It only counts:
// the stock trace.Recorder appends every record under a mutex, which at the
// fine-step workload's event rate would measure the recorder, not the run.
func (tr *tracer) handle(rec trace.Record) {
	if i := int(rec.Ev); i >= 0 && i < len(tr.events) {
		tr.events[i].Add(1)
		tr.argSum[i].Add(rec.Arg)
	}
}

func (tr *tracer) count(ev trace.Event) float64    { return float64(tr.events[ev].Load()) }
func (tr *tracer) argSumOf(ev trace.Event) float64 { return float64(tr.argSum[ev].Load()) }

// selfSeconds returns, per span name, every span's self time: its duration
// minus the part its child spans cover. Children on a lane are sequential
// and nested inside the parent, so the covered part is the sum of their
// durations.
func (tr *tracer) selfSeconds() map[string][]float64 {
	out := map[string][]float64{}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, l := range tr.lanes {
		covered := make([]int64, len(l.spans))
		for _, s := range l.spans {
			if s.Parent >= 0 {
				covered[s.Parent] += s.End - s.Start
			}
		}
		for i, s := range l.spans {
			out[s.Name] = append(out[s.Name], float64(s.End-s.Start-covered[i])/1e9)
		}
	}
	return out
}

// write stores the spans as JSON, one array per lane.
func (tr *tracer) write(path string) error {
	tr.mu.Lock()
	lanes := make([][]span, len(tr.lanes))
	for i, l := range tr.lanes {
		lanes[i] = l.spans
	}
	tr.mu.Unlock()
	buf, err := json.Marshal(map[string]any{"lanes": lanes})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
