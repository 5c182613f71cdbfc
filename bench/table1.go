package main

import (
	"fmt"
	"math/rand"

	gomp "repro"
	"repro/internal/icv"
	"repro/internal/mandelbrot"
	"repro/internal/npb"
)

// newRuntime builds an isolated GoMP runtime whose teams have n threads.
func newRuntime(n int) *gomp.Runtime {
	s := icv.Default()
	s.NumThreads = []int{n}
	return gomp.NewRuntime(s)
}

// table1 is the paper's Table 1: NPB CG, EP, IS and Mandelbrot, each as
// Serial, Reference (hand-written goroutines) and GoMP at nproc threads.
type table1 struct {
	c       *config
	rt      *gomp.Runtime
	kernels []kernel
	// refFirst flips, per seed, which variant of a pair runs first in even
	// rounds; odd rounds run the other order.
	refFirst bool
}

// mandelbrotTotals are the iteration totals of mandelbrot.DefaultSpec(size),
// which are integers and so the same on every correct implementation.
var mandelbrotTotals = map[int]mandelbrot.Result{
	128:  {TotalIters: 4060759, Interior: 3972},
	1024: {TotalIters: 259818836, Interior: 253576},
}

// kernel is one Table 1 row; each variant returns whether its result
// verified.
type kernel struct {
	name, ompMetric  string // span prefix, and the per-layer name of the GoMP time
	serial, ref, omp func() bool
}

func (w *table1) setup(c *config) error {
	w.c = c
	sz, n := c.sz, c.nproc
	cg := npb.BuildCG(sz.cgClass)
	is := npb.BuildIS(sz.isClass)
	spec := mandelbrot.DefaultSpec(sz.mandel)
	rt := newRuntime(n)
	rt.Parallel(func(*gomp.Thread) {}) // start the team's workers before timing
	w.rt = rt
	ok := func(s npb.VerifyStatus) bool { return s == npb.VerifySuccess }
	// Mandelbrot has no verification word: every variant must reproduce,
	// bit for bit, the escape-iteration totals recorded for this window.
	want, known := mandelbrotTotals[sz.mandel]
	if !known {
		return fmt.Errorf("no recorded Mandelbrot totals for size %d", sz.mandel)
	}
	w.kernels = []kernel{
		{"npb.cg", "npb.cg_s", func() bool { return ok(cg.RunSerial().Status) },
			func() bool { return ok(cg.RunRef(n).Status) },
			func() bool { return ok(cg.RunOMP(rt).Status) }},
		{"npb.ep", "npb.ep_s", func() bool { return ok(npb.EPSerial(sz.epClass).Status) },
			func() bool { return ok(npb.EPRef(sz.epClass, n).Status) },
			func() bool { return ok(npb.EPOMP(rt, sz.epClass).Status) }},
		{"npb.is", "npb.is_s", func() bool { return ok(is.RunSerial().Status) },
			func() bool { return ok(is.RunRef(n).Status) },
			func() bool { return ok(is.RunOMP(rt).Status) }},
		{"mandelbrot", "mandelbrot.omp_s", func() bool { return mandelbrot.Serial(spec) == want },
			func() bool { return mandelbrot.Ref(spec, n) == want },
			func() bool { return mandelbrot.OMP(rt, spec) == want }},
	}
	// The NPB inputs are fixed by their class, so the seed has only the
	// order of the measurements to choose.
	rng := rand.New(rand.NewSource(c.seed))
	rng.Shuffle(len(w.kernels), func(i, j int) { w.kernels[i], w.kernels[j] = w.kernels[j], w.kernels[i] })
	w.refFirst = rng.Intn(2) == 0
	return nil
}

func (w *table1) close() {
	if w.rt != nil {
		w.rt.Pool().Shutdown()
		w.rt = nil
	}
}

func (w *table1) run(p *pass) {
	p.rounds(func(r int) {
		for _, k := range w.kernels {
			run := func(form string, fn func() bool) {
				var good bool
				p.timed(k.name+form, func() { good = fn() })
				p.verify(good, "table1 %s%s round %d", k.name, form, r)
			}
			// Serial only feeds the speedup ratio; every third round is
			// enough and leaves the time to the Reference/GoMP pairs.
			if r%3 == 0 {
				run(".serial", k.serial)
			}
			if (r%2 == 0) == w.refFirst {
				run(".ref", k.ref)
				run(".omp", k.omp)
			} else {
				run(".omp", k.omp)
				run(".ref", k.ref)
			}
		}
	})
}

func (w *table1) metrics(p *pass) map[string]measure {
	m := map[string]measure{}
	var solve, refs, serials measure
	var vsRef, speedup []float64
	for _, k := range w.kernels {
		omp, ref, ser := p.med(k.name+".omp"), p.med(k.name+".ref"), p.med(k.name+".serial")
		m[k.ompMetric], m[k.name+".ref_s"], m[k.name+".serial_s"] = omp, ref, ser
		solve, refs, serials = measure{solve.v + omp.v, omp.n}, measure{refs.v + ref.v, ref.n}, measure{serials.v + ser.v, ser.n}
		vsRef = append(vsRef, omp.v/ref.v)
		speedup = append(speedup, ser.v/omp.v)
	}
	// The Reference and Serial sums are bounded beside the GoMP sum so that
	// neither ratio can be improved by slowing its base.
	m["solve_s"], m["form_a_s"], m["form_b_s"], m["form_c_s"] = solve, refs, serials, m["mandelbrot.omp_s"]
	// On one processor the ratios would read 1.00 whatever the runtime
	// does; they are left out (0) instead.
	if w.c.nproc >= 2 {
		m["omp_vs_ref"] = measure{geomean(vsRef), solve.n}
		m["speedup"] = measure{geomean(speedup), solve.n}
	}
	return m
}

func (w *table1) probes(c *config) map[string]measure { return schedProbes(c) }
