// Package wavefront is the dependency-structured kernel: a blocked 2D
// Gauss–Seidel sweep, the canonical depend-clause pattern. Cell
// (i,j) is updated from its already-updated north and west neighbours, so a
// tile can run only after the tile above it and the tile to its left — a
// wavefront of ready tiles advances across the grid diagonal by diagonal.
//
// Plain worksharing loops cannot express this (they would need a barrier
// per anti-diagonal, serialising the ragged start and end of each front);
// task dependencies let every tile start the moment its two predecessors
// finish. Serial is the baseline; OMP runs one task per tile per sweep with
// depend(in) on the north/west tiles' tokens and depend(inout) on the
// tile's own, recorded once as a taskgraph and replayed for every later
// sweep.
//
// Both variants apply updates in the same per-cell order, so their results
// are bit-identical and Checksum equality is exact.
package wavefront

import "repro/internal/core"

// Spec fixes a wavefront problem: an N×N grid swept Sweeps times in tiles
// of Block×Block cells.
type Spec struct {
	N      int
	Block  int
	Sweeps int
}

// blocks returns the tile count per dimension (over rows/cols 1..N-1; row 0
// and column 0 are fixed boundary).
func (s Spec) blocks() int {
	return (s.N - 1 + s.Block - 1) / s.Block
}

// NewGrid builds the deterministic initial grid.
func NewGrid(s Spec) []float64 {
	g := make([]float64, s.N*s.N)
	for i := 0; i < s.N; i++ {
		for j := 0; j < s.N; j++ {
			g[i*s.N+j] = float64((i*131+j*37)%97) / 97.0
		}
	}
	return g
}

// Checksum folds the grid into one comparable value. Variants are
// bit-identical, so exact equality is the verification criterion.
func Checksum(g []float64) float64 {
	sum := 0.0
	for _, v := range g {
		sum += v
	}
	return sum
}

// tile applies one sweep's update to tile (bi,bj): a Gauss–Seidel relaxation
// reading the updated north and west neighbours.
func tile(s Spec, g []float64, bi, bj int) {
	n := s.N
	rlo, rhi := 1+bi*s.Block, min(n, 1+(bi+1)*s.Block)
	clo, chi := 1+bj*s.Block, min(n, 1+(bj+1)*s.Block)
	for i := rlo; i < rhi; i++ {
		row := g[i*n:]
		north := g[(i-1)*n:]
		for j := clo; j < chi; j++ {
			row[j] = 0.25 * (2*row[j] + north[j] + row[j-1])
		}
	}
}

// Serial runs the sweeps single-threaded, row-major.
func Serial(s Spec, g []float64) {
	nb := s.blocks()
	for sweep := 0; sweep < s.Sweeps; sweep++ {
		for bi := 0; bi < nb; bi++ {
			for bj := 0; bj < nb; bj++ {
				tile(s, g, bi, bj)
			}
		}
	}
}

// OMP runs the wavefront on the gomp runtime: the master generates one task
// per tile per sweep with depend clauses on per-tile tokens, and the other
// team members execute the released tasks from the region-end barrier (a
// task scheduling point) while the master executes them from the end of
// each sweep. Every sweep builds the same DAG, so each is one encounter of
// a taskgraph: sweep 0 runs the spawn loop and records the tasks and their
// edges, and the later sweeps replay the recorded graph without spawning,
// building closures or registering dependences again. A taskgraph waits
// for its tasks, so sweeps no longer overlap: the join after each sweep
// orders it before the next one, which the inout dependence on a tile's own
// token did when all the sweeps were in flight at once.
func OMP(rt *core.Runtime, s Spec, g []float64) {
	nb := s.blocks()
	tok := make([]byte, nb*nb)
	rt.Parallel(func(t *core.Thread) {
		if t.Num() != 0 {
			return // non-masters proceed to the barrier and execute tasks
		}
		var tg core.Taskgraph
		sweep := func() {
			for bi := 0; bi < nb; bi++ {
				for bj := 0; bj < nb; bj++ {
					bi, bj := bi, bj
					opts := make([]core.TaskOption, 0, 3)
					if bi > 0 {
						opts = append(opts, core.DependIn(&tok[(bi-1)*nb+bj]))
					}
					if bj > 0 {
						opts = append(opts, core.DependIn(&tok[bi*nb+bj-1]))
					}
					opts = append(opts, core.DependInOut(&tok[bi*nb+bj]))
					t.Task(func(*core.Thread) {
						tile(s, g, bi, bj)
					}, opts...)
				}
			}
		}
		for k := 0; k < s.Sweeps; k++ {
			t.Taskgraph(&tg, sweep)
		}
	})
}
