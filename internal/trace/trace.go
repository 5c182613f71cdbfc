// Package trace is the observability layer of the runtime — the analog of
// OMPT, the OpenMP tool interface that libomp exposes. A registered handler
// receives an event stream (region fork/join, barriers, loop chunk
// dispatches, task lifecycle, critical sections) from which tools build
// timelines or profiles; the built-in Recorder collects and summarises.
//
// The hot-path cost when no handler is registered is one atomic pointer
// load per potential event.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Event identifies a runtime event kind.
type Event int

const (
	// EvRegionFork fires when a parallel region forks; Arg = team size.
	EvRegionFork Event = iota
	// EvRegionJoin fires when the region's join completes.
	EvRegionJoin
	// EvBarrierEnter fires when a thread arrives at a team barrier.
	EvBarrierEnter
	// EvBarrierExit fires when the barrier releases the thread.
	EvBarrierExit
	// EvLoopChunk fires per worksharing chunk dispatch; Arg = chunk length.
	EvLoopChunk
	// EvTaskCreate fires when an explicit task is spawned.
	EvTaskCreate
	// EvTaskRun fires when a task begins execution.
	EvTaskRun
	// EvTaskReady fires when a task's depend-clause predecessors have all
	// completed and the task enters a ready queue; Arg = task priority.
	EvTaskReady
	// EvCriticalEnter fires after a critical lock is acquired.
	EvCriticalEnter
	// EvCriticalExit fires when the critical lock is released.
	EvCriticalExit
	// EvDoacrossWait fires when a doacross iteration begins waiting on a
	// depend(sink) dependence; Arg = the sink's linearized iteration.
	EvDoacrossWait
	// EvDoacrossPost fires when a doacross iteration posts its finished
	// flag (depend(source) or the conservative auto-post); Arg = the
	// posting iteration's linearized number.
	EvDoacrossPost
	// EvTargetBegin fires when a target region starts executing on a
	// device; Arg = the resolved device id.
	EvTargetBegin
	// EvTargetEnd fires when the target region (including its map-exit
	// transfers) completes; Arg = the resolved device id.
	EvTargetEnd
	// EvMapTo fires when a map entry transfers host data to a device
	// buffer; Arg = the transfer size in bytes.
	EvMapTo
	// EvMapFrom fires when a device buffer is transferred back into host
	// storage; Arg = the transfer size in bytes.
	EvMapFrom
	numEvents = iota
)

// String returns the event name.
func (e Event) String() string {
	switch e {
	case EvRegionFork:
		return "region-fork"
	case EvRegionJoin:
		return "region-join"
	case EvBarrierEnter:
		return "barrier-enter"
	case EvBarrierExit:
		return "barrier-exit"
	case EvLoopChunk:
		return "loop-chunk"
	case EvTaskCreate:
		return "task-create"
	case EvTaskRun:
		return "task-run"
	case EvTaskReady:
		return "task-ready"
	case EvCriticalEnter:
		return "critical-enter"
	case EvCriticalExit:
		return "critical-exit"
	case EvDoacrossWait:
		return "doacross-wait"
	case EvDoacrossPost:
		return "doacross-post"
	case EvTargetBegin:
		return "target-begin"
	case EvTargetEnd:
		return "target-end"
	case EvMapTo:
		return "map-to"
	case EvMapFrom:
		return "map-from"
	default:
		return fmt.Sprintf("Event(%d)", int(e))
	}
}

// Record is one emitted event.
type Record struct {
	Ev   Event
	GTID int   // global thread id of the emitting thread
	Arg  int64 // event-specific payload (team size, chunk length, ...)
}

// Handler consumes events. Handlers run inline on runtime hot paths and
// must be fast and non-blocking.
type Handler func(Record)

var handler atomic.Pointer[Handler]

// Set installs h as the process-wide handler (replacing any previous one).
func Set(h Handler) {
	if h == nil {
		handler.Store(nil)
		return
	}
	handler.Store(&h)
}

// Clear removes the handler.
func Clear() { handler.Store(nil) }

// Enabled reports whether a handler is installed; instrumentation sites
// check it before building event payloads.
func Enabled() bool { return handler.Load() != nil }

// Emit delivers an event to the handler, if any.
func Emit(ev Event, gtid int, arg int64) {
	if h := handler.Load(); h != nil {
		(*h)(Record{Ev: ev, GTID: gtid, Arg: arg})
	}
}

// Recorder is a Handler implementation that stores events and tallies
// counts, for tests and the ompinfo-style tooling.
type Recorder struct {
	mu      sync.Mutex
	records []Record
	counts  [numEvents]int64
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Handle implements Handler; install with trace.Set(r.Handle).
func (r *Recorder) Handle(rec Record) {
	r.mu.Lock()
	r.records = append(r.records, rec)
	if rec.Ev >= 0 && int(rec.Ev) < numEvents {
		r.counts[rec.Ev]++
	}
	r.mu.Unlock()
}

// Count returns how many events of kind ev were recorded.
func (r *Recorder) Count(ev Event) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counts[ev]
}

// Records returns a copy of the event log.
func (r *Recorder) Records() []Record {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Record(nil), r.records...)
}

// Summary renders per-event counts, sorted by event id.
func (r *Recorder) Summary() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	type row struct {
		ev Event
		n  int64
	}
	var rows []row
	for ev := Event(0); ev < numEvents; ev++ {
		if r.counts[ev] > 0 {
			rows = append(rows, row{ev, r.counts[ev]})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].ev < rows[j].ev })
	var b strings.Builder
	for _, rw := range rows {
		fmt.Fprintf(&b, "%-15s %8d\n", rw.ev, rw.n)
	}
	return b.String()
}
