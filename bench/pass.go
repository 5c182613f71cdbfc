package main

import (
	"fmt"
	"os"
	"time"

	gomp "repro"
	"repro/internal/trace"
)

// workload is one of the benchmark's named input sets. setup builds every
// input from the seed (close comes between two setups); run repeats the
// workload's forms until the pass's time is up, at least once; metrics
// turns one pass's samples into named numbers; probes runs the layer
// micro-probes this workload owns (traced run only).
type workload interface {
	setup(c *config) error
	run(p *pass)
	metrics(p *pass) map[string]measure
	probes(c *config) map[string]measure
	close()
}

// measure is a reported number with the count of samples behind it (1 for
// a count or a value measured once).
type measure struct {
	v float64
	n int
}

// config is what every workload is given: sizes, the input seed and the
// team size. The seed reaches input generators only.
type config struct {
	sz    *sizes
	seed  int64
	nproc int
	tmp   string // scratch directory inside the checkout, removed at exit
}

// pass is one measured run of a workload: untraced (lane == nil) or traced.
type pass struct {
	c        *config
	tr       *tracer
	lane     *lane
	deadline time.Time
	samples  map[string][]float64 // seconds, by form or span name
	vals     map[string]float64   // counts the workload reads from public accessors
	// roundEvents is the tracer's event tally after the first round, so
	// counts do not depend on how many rounds fitted into the time.
	roundEvents, roundArgs map[trace.Event]float64
	attempted, failed      int
	complaints             int
}

func newPass(c *config, tr *tracer, budget time.Duration) *pass {
	p := &pass{c: c, tr: tr, deadline: time.Now().Add(budget),
		samples: map[string][]float64{}, vals: map[string]float64{}}
	if tr != nil {
		p.lane = tr.newLane()
	}
	return p
}

// timed runs fn, records its duration as a sample of name and, in the
// traced pass, as a span.
func (p *pass) timed(name string, fn func()) time.Duration {
	idx := -1
	if p.lane != nil {
		idx = p.lane.begin(name)
	}
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	if idx >= 0 {
		p.lane.end(idx)
	}
	p.samples[name] = append(p.samples[name], d.Seconds())
	return d
}

// rounds calls fn with r = 0, 1, ... until another round of the same length
// would overrun the pass's time; fn always runs once.
func (p *pass) rounds(fn func(r int)) {
	for r := 0; ; r++ {
		if p.lane != nil {
			p.lane.rep = r
		}
		d := p.timed("round", func() { fn(r) })
		if r == 0 {
			p.snapshotEvents()
		}
		if time.Now().Add(d).After(p.deadline) {
			return
		}
	}
}

func (p *pass) snapshotEvents() {
	if p.tr == nil || p.roundEvents != nil {
		return
	}
	p.roundEvents, p.roundArgs = map[trace.Event]float64{}, map[trace.Event]float64{}
	for ev := trace.Event(0); int(ev) < len(p.tr.events); ev++ {
		p.roundEvents[ev] = p.tr.count(ev)
		p.roundArgs[ev] = p.tr.argSumOf(ev)
	}
}

// verify counts one checked operation; a failed check is a failed operation.
func (p *pass) verify(ok bool, format string, args ...any) {
	p.attempted++
	if ok {
		return
	}
	p.failed++
	if p.complaints++; p.complaints <= 10 {
		fmt.Fprintf(os.Stderr, "bench: VERIFICATION FAILED: "+format+"\n", args...)
	}
}

// poolCounts reads the runtime's admission and hot-team counters through
// the pool's public accessors.
func (p *pass) poolCounts(rt *gomp.Runtime) {
	shrunk, serialized := rt.Pool().AdmissionStats()
	p.vals["kmp.shrunk"], p.vals["kmp.serialized"] = float64(shrunk), float64(serialized)
	p.vals["kmp.shard_steals"] = float64(rt.Pool().ShardSteals())
	p.vals["kmp.live_workers"] = float64(rt.Pool().LiveWorkers())
}

// finish ends the pass: in the traced pass the samples become the spans'
// self times, so the per-layer numbers are read from the trace itself.
func (p *pass) finish() {
	p.snapshotEvents()
	if p.tr != nil {
		for name, self := range p.tr.selfSeconds() {
			p.samples[name] = self
		}
	}
}

// med is the median of a form's samples with their count.
func (p *pass) med(name string) measure {
	return measure{median(p.samples[name]), len(p.samples[name])}
}

// scaled is med with the value multiplied by k (unit conversion).
func (p *pass) scaled(name string, k float64) measure {
	m := p.med(name)
	return measure{m.v * k, m.n}
}

// rate is units of work per second at the form's median time.
func (p *pass) rate(name string, units float64) measure {
	m := p.med(name)
	if m.v <= 0 {
		return measure{0, m.n}
	}
	return measure{units / m.v, m.n}
}

func one(v float64) measure { return measure{v, 1} }
