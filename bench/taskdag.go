package main

import (
	"math/rand"

	gomp "repro"
	"repro/internal/taskbench"
	"repro/internal/wavefront"
)

// taskdag stresses the tasking layer two ways: a blocked wavefront whose
// tiles are `depend` tasks — the same DAG rebuilt sweep after sweep — and
// the fib / n-queens spawn trees, the same layer with no dependences.
type taskdag struct {
	c    *config
	rt   *gomp.Runtime
	spec wavefront.Spec
	base []float64 // seeded initial grid
	want float64   // checksum of the serial sweeps over base
	// Oracles and task counts for the trees, from the benchmark's own
	// recurrences.
	fibWant, nqWant   int64
	dagTasks, treeOps float64
}

func (w *taskdag) setup(c *config) error {
	w.c = c
	sz := c.sz
	w.spec = wavefront.Spec{N: sz.wfN, Block: sz.wfBlock, Sweeps: sz.wfSweeps}
	w.base = wavefront.NewGrid(w.spec)
	rng := rand.New(rand.NewSource(c.seed))
	for i := range w.base {
		w.base[i] += rng.Float64() / 97
	}
	g := append([]float64(nil), w.base...)
	wavefront.Serial(w.spec, g)
	w.want = wavefront.Checksum(g)
	blocks := (sz.wfN - 1 + sz.wfBlock - 1) / sz.wfBlock
	w.dagTasks = float64(blocks * blocks * sz.wfSweeps)
	w.fibWant = fibValue(sz.fibN)
	w.nqWant = taskbench.NQueensSerial(sz.nqN)
	w.treeOps = float64(fibTasks(sz.fibN, sz.fibCut) + nqTasks(make([]int, 0, sz.nqN), sz.nqN, sz.nqCut))
	w.freshRuntime()
	return nil
}

// freshRuntime replaces the runtime and starts its team's workers. How
// fast a team steals depends on where its workers landed when the pool
// started (instances differ by some ±10 % on the spawn trees), so a run
// renews the runtime every sz.teamRounds rounds and its medians are taken
// over many placements instead of one drawn at start-up.
func (w *taskdag) freshRuntime() {
	w.close()
	w.rt = newRuntime(w.c.nproc)
	w.rt.Parallel(func(*gomp.Thread) {})
}

func (w *taskdag) close() {
	if w.rt != nil {
		w.rt.Pool().Shutdown()
		w.rt = nil
	}
}

// fibValue is fibonacci by iteration — an oracle that shares no code with
// the task tree.
func fibValue(n int) int64 {
	a, b := int64(0), int64(1)
	for i := 0; i < n; i++ {
		a, b = b, a+b
	}
	return a
}

// fibTasks counts the tasks taskbench.Fib spawns: two per call at or above
// the cutoff.
func fibTasks(n, cutoff int) int64 {
	t := make([]int64, n+1)
	for i := cutoff; i <= n; i++ {
		t[i] = 2
		if i >= 1 {
			t[i] += t[i-1]
		}
		if i >= 2 {
			t[i] += t[i-2]
		}
	}
	return t[n]
}

// nqTasks counts the tasks taskbench.NQueens spawns: one per safe placement
// in the first cutoff rows.
func nqTasks(pos []int, n, cutoff int) int64 {
	row := len(pos)
	if row >= cutoff {
		return 0
	}
	total := int64(0)
	for col := 0; col < n; col++ {
		safe := true
		for r, c := range pos {
			if c == col || c-col == row-r || col-c == row-r {
				safe = false
				break
			}
		}
		if safe {
			total += 1 + nqTasks(append(pos, col), n, cutoff)
		}
	}
	return total
}

func (w *taskdag) run(p *pass) {
	sz := w.c.sz
	g := make([]float64, len(w.base))
	p.rounds(func(r int) {
		if r > 0 && r%sz.teamRounds == 0 {
			w.freshRuntime()
		}
		copy(g, w.base)
		p.timed("wavefront.omp", func() { wavefront.OMP(w.rt, w.spec, g) })
		got := wavefront.Checksum(g)
		p.verify(got == w.want, "task-dag wavefront round %d: checksum %v, serial %v", r, got, w.want)
		if r == 0 {
			copy(g, w.base)
			p.timed("wavefront.serial", func() { wavefront.Serial(w.spec, g) })
		}
		var fib, nq int64
		p.timed("task.fib", func() { fib = taskbench.Fib(w.rt, sz.fibN, sz.fibCut) })
		p.timed("task.nqueens", func() { nq = taskbench.NQueens(w.rt, sz.nqN, sz.nqCut) })
		p.verify(fib == w.fibWant, "task-dag fib(%d) round %d = %d, want %d", sz.fibN, r, fib, w.fibWant)
		p.verify(nq == w.nqWant, "task-dag nqueens(%d) round %d = %d, want %d", sz.nqN, r, nq, w.nqWant)
	})
}

func (w *taskdag) metrics(p *pass) map[string]measure {
	dag, fib, nq := p.med("wavefront.omp"), p.med("task.fib"), p.med("task.nqueens")
	sweeps := float64(w.spec.Sweeps)
	trees := 0.0
	if fib.v+nq.v > 0 {
		trees = w.treeOps / (fib.v + nq.v)
	}
	return map[string]measure{
		"solve_s":             {dag.v + fib.v + nq.v, dag.n},
		"form_a_s":            dag,
		"form_b_s":            fib,
		"form_c_s":            nq,
		"dag_tasks_per_s":     p.rate("wavefront.omp", w.dagTasks),
		"tree_tasks_per_s":    {trees, fib.n},
		"wavefront.sweep_ms":  p.scaled("wavefront.omp", 1e3/sweeps),
		"wavefront.serial_ms": p.scaled("wavefront.serial", 1e3/sweeps),
	}
}

func (w *taskdag) probes(c *config) map[string]measure { return taskProbes(c) }
