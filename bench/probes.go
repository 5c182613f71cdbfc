package main

import (
	"os"
	"path"
	"path/filepath"
	"strings"
	"sync"
	"time"
	"unsafe"

	gomp "repro"
	"repro/internal/barrier"
	"repro/internal/device"
	"repro/internal/directive"
	"repro/internal/icv"
	"repro/internal/kmp"
	"repro/internal/lock"
	"repro/internal/modpipe"
	"repro/internal/reduction"
	"repro/internal/sched"
	"repro/internal/sema"
	"repro/internal/task"
	"repro/internal/transform"
)

// The micro-probes time one public function of one layer in isolation.
// They run only in the traced run, next to the workload that should feel
// the layer, and are reported as costs per operation — never as a gain.

const probeReps = 5

// perOp times batch, which performs ops operations, probeReps times and
// returns the median cost of one operation in the given unit (1 for ns,
// 1e3 for µs, ...).
func perOp(ops int, unit float64, batch func()) measure {
	var xs []float64
	for i := 0; i < probeReps; i++ {
		t0 := time.Now()
		batch()
		xs = append(xs, float64(time.Since(t0).Nanoseconds())/float64(ops)/unit)
	}
	return measure{median(xs), probeReps}
}

// team runs body(tid) on n goroutines and waits for them.
func team(n int, body func(tid int)) {
	var wg sync.WaitGroup
	for tid := 0; tid < n; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			body(tid)
		}(tid)
	}
	wg.Wait()
}

var delaySink float64

// delay is the EPCC reference body: a short, fixed amount of arithmetic.
func delay() {
	x := 0.0
	for i := 0; i < 64; i++ {
		x += float64(i) * 0.5
	}
	if x < 0 {
		delaySink = x
	}
}

// coreProbes prices core's constructs the EPCC way: the time of ops
// constructs around the reference body, minus the body run bare.
func coreProbes(c *config) map[string]measure {
	ops, n := c.sz.probeOps/10, c.nproc
	rt := newRuntime(n)
	defer rt.Pool().Shutdown()
	bare := perOp(ops, 1, func() {
		for i := 0; i < ops; i++ {
			delay()
		}
	}).v
	over := func(batch func()) measure {
		m := perOp(ops, 1, batch)
		return measure{m.v - bare, m.n}
	}
	inRegion := func(construct func(t *gomp.Thread)) func() {
		return func() {
			rt.Parallel(func(t *gomp.Thread) {
				for i := 0; i < ops; i++ {
					construct(t)
				}
			})
		}
	}
	return map[string]measure{
		"core.parallel_ns": over(func() {
			for i := 0; i < ops; i++ {
				rt.Parallel(func(*gomp.Thread) { delay() })
			}
		}),
		"core.for_ns": over(inRegion(func(t *gomp.Thread) { t.For(n, func(int) { delay() }) })),
		"core.reducefor_ns": over(inRegion(func(t *gomp.Thread) {
			gomp.ReduceFor(t, n, gomp.OpSum, func(_ int, acc float64) float64 { delay(); return acc + 1 })
		})),
		"core.single_ns": over(inRegion(func(t *gomp.Thread) { t.Single(delay) })),
		// Each critical and each ordered iteration runs the body once, one
		// thread at a time, so the bare loop is the same reference.
		"core.critical_ns": over(func() {
			rt.Parallel(func(t *gomp.Thread) {
				for i := t.Num(); i < ops; i += n {
					t.Critical("bench", delay)
				}
			})
		}),
		"core.ordered_ns": over(func() {
			rt.Parallel(func(t *gomp.Thread) {
				t.ForOrdered(ops, func(_ int, ord *gomp.OrderedCtx) { ord.Do(delay) }, gomp.Schedule(gomp.Static, 1))
			})
		}),
	}
}

// kmpProbes prices the fork path below core: a hot empty fork, and the
// first fork of a pool that has no workers yet.
func kmpProbes(c *config) map[string]measure {
	ops, spec := c.sz.probeOps/10, kmp.ForkSpec{NumThreads: c.nproc}
	micro := func(*kmp.Team, int) {}
	pool := kmp.NewPool(nil)
	defer pool.Shutdown()
	pool.Fork(nil, spec, micro)
	var cold []float64
	for i := 0; i < 2*probeReps; i++ {
		fresh := kmp.NewPool(nil)
		t0 := time.Now()
		fresh.Fork(nil, spec, micro)
		cold = append(cold, float64(time.Since(t0).Nanoseconds())/1e3)
		fresh.Shutdown()
	}
	return map[string]measure{
		"kmp.fork_ns": perOp(ops, 1, func() {
			for i := 0; i < ops; i++ {
				pool.Fork(nil, spec, micro)
			}
		}),
		"kmp.fork_cold_us": {median(cold), len(cold)},
	}
}

// barrierProbes prices one Wait of each algorithm with nproc participants.
func barrierProbes(c *config) map[string]measure {
	ops, n := c.sz.probeOps/10, c.nproc
	m := map[string]measure{}
	for _, kind := range []barrier.Kind{barrier.CentralKind, barrier.TreeKind, barrier.DisseminationKind} {
		bar := barrier.New(kind, n, icv.PolicyAuto)
		m["barrier."+kind.String()+"_ns"] = perOp(ops, 1, func() {
			team(n, func(tid int) {
				for i := 0; i < ops; i++ {
					bar.Wait(tid)
				}
			})
		})
	}
	return m
}

// schedProbes prices one Next of each schedule at chunk 1, uncontended: one
// goroutine takes the threads' turns round-robin, loop after loop, until
// probeOps chunks have been handed out. Next calls are counted, because
// guided hands a probeOps-iteration loop out in a few dozen chunks.
func schedProbes(c *config) map[string]measure {
	trip, n := int64(c.sz.probeOps), c.nproc
	m := map[string]measure{}
	for name, kind := range map[string]icv.ScheduleKind{
		"static": icv.StaticSched, "dynamic": icv.DynamicSched, "guided": icv.GuidedSched, "steal": icv.StealSched,
	} {
		s := sched.New(icv.Schedule{Kind: kind, Chunk: 1}, trip, n)
		var xs []float64
		for rep := 0; rep < probeReps; rep++ {
			calls := int64(0)
			t0 := time.Now()
			for calls < trip {
				s.Reset(trip, n)
				for live := n; live > 0; {
					live = 0
					for tid := 0; tid < n; tid++ {
						calls++
						if _, ok := s.Next(tid); ok {
							live++
						}
					}
				}
			}
			xs = append(xs, float64(time.Since(t0).Nanoseconds())/float64(calls))
		}
		m["sched."+name+"_next_ns"] = measure{median(xs), probeReps}
	}
	return m
}

// reductionProbes prices the per-thread-slot accumulator (one Update per
// thread and the final Reduce) and one Contribute of the shared strategies.
func reductionProbes(c *config) map[string]measure {
	ops, n := c.sz.probeOps, c.nproc
	acc := reduction.NewAccumulator[float64](reduction.Sum, n)
	total := 0.0
	m := map[string]measure{
		"reduction.accumulate_ns": perOp(ops, 1, func() {
			for i := 0; i < ops; i++ {
				for tid := 0; tid < n; tid++ {
					acc.Update(tid, 1)
				}
				total += acc.Reduce()
			}
		}),
	}
	delaySink = total
	for name, strat := range map[string]reduction.Strategy{"atomic": reduction.StrategyAtomic, "critical": reduction.StrategyCritical} {
		shared := reduction.NewSharedFloat64(strat, reduction.Sum, n)
		m["reduction."+name+"_ns"] = perOp(ops, 1, func() {
			team(n, func(tid int) {
				for i := tid; i < ops; i += n {
					shared.Contribute(tid, 1)
				}
			})
		})
	}
	return m
}

// lockProbes prices Set+Unset of each lock uncontended, and the spin lock
// shared by nproc threads.
func lockProbes(c *config) map[string]measure {
	ops, n := c.sz.probeOps, c.nproc
	pair := func(l lock.Lock, threads int) measure {
		return perOp(ops, 1, func() {
			team(threads, func(tid int) {
				for i := tid; i < ops; i += threads {
					l.Set()
					l.Unset()
				}
			})
		})
	}
	return map[string]measure{
		"lock.spin_ns":           pair(&lock.Spin{}, 1),
		"lock.ticket_ns":         pair(&lock.Ticket{}, 1),
		"lock.mutex_ns":          pair(&lock.Mutex{}, 1),
		"lock.spin_contended_ns": pair(&lock.Spin{}, n),
	}
}

// taskProbes prices the task pool below core: spawn and run one task, and
// the same with one in and one out dependence.
func taskProbes(c *config) map[string]measure {
	ops := c.sz.probeOps / 10
	fn := func(*task.Unit) {}
	var a, b int
	deps := []task.Dep{
		{Addr: uintptr(unsafe.Pointer(&a)), Kind: task.DepIn},
		{Addr: uintptr(unsafe.Pointer(&b)), Kind: task.DepOut},
	}
	pool := task.NewPool(1)
	root := task.NewRoot(pool)
	return map[string]measure{
		"task.spawn_ns": perOp(ops, 1, func() {
			for i := 0; i < ops; i++ {
				pool.Spawn(0, root, nil, fn)
				pool.RunOne(0)
			}
		}),
		"task.depend_ns": perOp(ops, 1, func() {
			for i := 0; i < ops; i++ {
				pool.SpawnOpt(0, root, nil, task.SpawnOpts{Deps: deps}, fn)
				pool.RunOne(0)
			}
		}),
	}
}

// deviceProbes prices an empty kernel's round trip on the host and on the
// out-of-process device, and a bare map(tofrom:) of the workload's large
// array with no kernel in between.
func deviceProbes(c *config, mgr *device.Manager, dev int) map[string]measure {
	ops := c.sz.probeOps / 100
	empty := func(id int) measure {
		return perOp(ops, 1e3, func() {
			for i := 0; i < ops; i++ {
				mgr.Target(id, "bench.empty", nil, device.Launch{})
			}
		})
	}
	y := make([]float64, c.sz.mapElems)
	mb := 2 * 8 * float64(len(y)) / 1e6
	perMap := perOp(1, 1, func() {
		mgr.TargetData(dev, nil, device.Mapping{Kind: device.MapToFrom, Name: "y", Data: y})
	})
	return map[string]measure{
		"device.host_target_us":    empty(0),
		"device.subproc_target_us": empty(dev),
		"device.subproc_map_MBps":  {mb / (perMap.v / 1e9), perMap.n},
	}
}

// compilerProbes prices the compiler's layers one call at a time over the
// workload's corpus: the directive parser per directive body, the
// transformer per directive-bearing file (sema off), the type checker per
// package unit, and file discovery.
func compilerProbes(c *config, root string) map[string]measure {
	rels, err := modpipe.DiscoverFiles(root)
	if err != nil {
		return nil
	}
	discover := perOp(1, 1e6, func() { modpipe.DiscoverFiles(root) })

	units := map[string]map[string][]byte{} // directory -> file -> source
	var parseNs, fileUs, checkUs []float64
	bodies, diags, soft := 0, 0, 0
	opts := transform.DefaultOptions()
	for _, rel := range rels {
		src, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(rel)))
		if err != nil {
			continue
		}
		dir := path.Dir(rel)
		if units[dir] == nil {
			units[dir] = map[string][]byte{}
		}
		units[dir][rel] = src
		hasDirective := false
		for n, line := range strings.Split(string(src), "\n") {
			text, isComment := strings.CutPrefix(strings.TrimSpace(line), "//")
			body, ok := directive.IsDirectiveComment(text)
			if !isComment || !ok {
				continue
			}
			hasDirective = true
			bodies++
			t0 := time.Now()
			_, ds := directive.ParseAt(body, directive.Pos{File: rel, Line: n + 1, Col: 1})
			parseNs = append(parseNs, float64(time.Since(t0).Nanoseconds()))
			diags += len(ds)
		}
		if hasDirective {
			t0 := time.Now()
			transform.FileChecked(rel, src, opts)
			fileUs = append(fileUs, float64(time.Since(t0).Nanoseconds())/1e3)
		}
	}
	for _, unit := range units {
		t0 := time.Now()
		res := sema.Check(unit)
		res.Diagnose()
		checkUs = append(checkUs, float64(time.Since(t0).Nanoseconds())/1e3)
		soft += res.SoftErrors
	}
	return map[string]measure{
		"modpipe.discover_ms": discover,
		"directive.parse_ns":  {median(parseNs), len(parseNs)},
		"directive.bodies":    one(float64(bodies)),
		"directive.diags":     one(float64(diags)),
		"transform.file_us":   {median(fileUs), len(fileUs)},
		"sema.check_us":       {median(checkUs), len(checkUs)},
		"sema.soft_errors":    one(float64(soft)),
	}
}
