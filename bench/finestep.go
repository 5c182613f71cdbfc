package main

import (
	"math"
	"math/rand"

	gomp "repro"
	"repro/internal/npb"
)

// finestep is the strong-scaling limit: a Jacobi sweep over a grid that
// fits in cache, so each region body lasts a few microseconds and the
// runtime's fork, barrier, schedule and reduction paths are the run time.
// The same sweep runs in two forms — one parallel region forked per
// timestep, and one persistent region with a barrier per timestep — plus
// NPB CG class S, hundreds of tiny regions of a real solver.
type finestep struct {
	c        *config
	rt       *gomp.Runtime
	n, steps int
	f        []float64 // right-hand side, (n+2)^2 with a zero halo
	wantGrid []float64 // serial result after steps sweeps
	wantRes  float64   // serial residual of the last sweep
	cg       *npb.CGData
}

func (w *finestep) setup(c *config) error {
	w.c, w.n, w.steps = c, c.sz.jacobiN, c.sz.jacobiSteps
	m := w.n + 2
	rng := rand.New(rand.NewSource(c.seed))
	w.f = make([]float64, m*m)
	for i := 1; i <= w.n; i++ {
		for j := 1; j <= w.n; j++ {
			w.f[i*m+j] = rng.Float64()
		}
	}
	// Serial oracle: the benchmark's own loop, not the code under test.
	u, v := make([]float64, m*m), make([]float64, m*m)
	for s := 0; s < w.steps; s++ {
		w.wantRes = 0
		for i := 1; i <= w.n; i++ {
			w.wantRes += jacobiRow(u, v, w.f, m, i)
		}
		u, v = v, u
	}
	w.wantGrid = u
	w.cg = npb.BuildCG(c.sz.fineCG)
	w.rt = newRuntime(c.nproc)
	w.rt.Parallel(func(*gomp.Thread) {})
	return nil
}

func (w *finestep) close() {
	if w.rt != nil {
		w.rt.Pool().Shutdown()
		w.rt = nil
	}
}

// jacobiRow relaxes row i of u into v and returns the row's squared change.
func jacobiRow(u, v, f []float64, m, i int) float64 {
	res := 0.0
	up, mid, down := u[(i-1)*m:i*m], u[i*m:(i+1)*m], u[(i+1)*m:(i+2)*m]
	out, rhs := v[i*m:(i+1)*m], f[i*m:(i+1)*m]
	for j := 1; j < m-1; j++ {
		x := 0.25 * (up[j] + down[j] + mid[j-1] + mid[j+1] + rhs[j])
		d := x - mid[j]
		res += d * d
		out[j] = x
	}
	return res
}

// forkPerStep forks one `parallel for reduction(+:res)` region per timestep.
func (w *finestep) forkPerStep() (grid []float64, res float64) {
	m := w.n + 2
	u, v := make([]float64, m*m), make([]float64, m*m)
	body := func(i int, acc float64) float64 { return acc + jacobiRow(u, v, w.f, m, i+1) }
	region := func(t *gomp.Thread) {
		r := gomp.ReduceFor(t, w.n, gomp.OpSum, body)
		t.Master(func() { res = r })
	}
	for s := 0; s < w.steps; s++ {
		w.rt.Parallel(region)
		u, v = v, u
	}
	return u, res
}

// persistent runs every timestep inside one region: a worksharing loop with
// a reduction, then a single that swaps the grids, each with its barrier.
func (w *finestep) persistent() (grid []float64, res float64) {
	m := w.n + 2
	u, v := make([]float64, m*m), make([]float64, m*m)
	body := func(i int, acc float64) float64 { return acc + jacobiRow(u, v, w.f, m, i+1) }
	w.rt.Parallel(func(t *gomp.Thread) {
		for s := 0; s < w.steps; s++ {
			r := gomp.ReduceFor(t, w.n, gomp.OpSum, body)
			t.Single(func() {
				res = r
				u, v = v, u
			})
		}
	})
	return u, res
}

// sameGrid is bit equality of every cell; the residual sums in a
// thread-dependent order, so it is compared to a relative 1e-9.
func (w *finestep) check(grid []float64, res float64) bool {
	for i, x := range w.wantGrid {
		if grid[i] != x {
			return false
		}
	}
	return math.Abs(res-w.wantRes) <= 1e-9*math.Abs(w.wantRes)
}

func (w *finestep) run(p *pass) {
	p.rounds(func(r int) {
		var grid []float64
		var res float64
		p.timed("fine.fork", func() { grid, res = w.forkPerStep() })
		p.verify(w.check(grid, res), "fine-step fork-per-step round %d: grid or residual differs from serial", r)
		p.timed("fine.barrier", func() { grid, res = w.persistent() })
		p.verify(w.check(grid, res), "fine-step persistent-region round %d: grid or residual differs from serial", r)
		var st npb.VerifyStatus
		p.timed("fine.cg", func() { st = w.cg.RunOMP(w.rt).Status })
		p.verify(st == npb.VerifySuccess, "fine-step CG class %v round %d: %v", w.c.sz.fineCG, r, st)
	})
	p.poolCounts(w.rt)
}

func (w *finestep) metrics(p *pass) map[string]measure {
	fork, bar, cg := p.med("fine.fork"), p.med("fine.barrier"), p.med("fine.cg")
	return map[string]measure{
		"solve_s":           {fork.v + bar.v + cg.v, fork.n},
		"form_a_s":          fork,
		"form_b_s":          bar,
		"form_c_s":          cg,
		"forkstep_per_s":    p.rate("fine.fork", float64(w.steps)),
		"barrierstep_per_s": p.rate("fine.barrier", float64(w.steps)),
		"fine.cg_ms":        p.scaled("fine.cg", 1e3),
	}
}

func (w *finestep) probes(c *config) map[string]measure {
	m := schedProbes(c)
	for _, more := range []map[string]measure{coreProbes(c), kmpProbes(c), barrierProbes(c), reductionProbes(c), lockProbes(c)} {
		for k, v := range more {
			m[k] = v
		}
	}
	return m
}
