// Package wavefront is the dependency-structured kernel: a blocked 2D
// Gauss–Seidel sweep, the canonical depend-clause pattern. Cell
// (i,j) is updated from its already-updated north and west neighbours, so a
// tile can run only after the tile above it and the tile to its left — a
// wavefront of ready tiles advances across the grid diagonal by diagonal.
//
// Plain worksharing loops cannot express this (they would need a barrier
// per anti-diagonal, serialising the ragged start and end of each front);
// task dependencies — or doacross cross-iteration dependences — let every
// tile start the moment its two predecessors finish. The variants follow
// the NPB kernels' convention: Serial is the baseline, Ref is the hand-built
// goroutine pipeline (barrier per anti-diagonal, the best structure
// available without dependencies), OMP runs one task per tile per sweep
// with depend(in) on the north/west tiles' tokens and depend(inout) on the
// tile's own, and Doacross expresses the same dependences at loop level
// via ordered(2) + depend(sink)/depend(source).
//
// All variants apply updates in the same per-cell order, so their results
// are bit-identical and Checksum equality is exact.
package wavefront

import (
	"sync"

	"repro/internal/core"
	"repro/internal/sched"
)

// Spec fixes a wavefront problem: an N×N grid swept Sweeps times in tiles
// of Block×Block cells.
type Spec struct {
	N      int
	Block  int
	Sweeps int
}

// DefaultSpec returns the configuration for an n×n grid: 64×64 tiles (one
// tile when n is smaller) and four sweeps.
func DefaultSpec(n int) Spec {
	b := 64
	if b > n {
		b = n
	}
	return Spec{N: n, Block: b, Sweeps: 4}
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

// Ref is the hand-parallelised goroutine implementation: tiles of each
// anti-diagonal run concurrently (bounded by threads), with a full join
// between diagonals — the structure a runtime without task dependencies
// forces onto a wavefront.
func Ref(s Spec, g []float64, threads int) {
	if threads < 1 {
		threads = 1
	}
	nb := s.blocks()
	sem := make(chan struct{}, threads)
	for sweep := 0; sweep < s.Sweeps; sweep++ {
		for d := 0; d <= 2*(nb-1); d++ {
			var wg sync.WaitGroup
			for bi := max(0, d-nb+1); bi <= min(d, nb-1); bi++ {
				bj := d - bi
				wg.Add(1)
				sem <- struct{}{}
				go func(bi, bj int) {
					defer wg.Done()
					tile(s, g, bi, bj)
					<-sem
				}(bi, bj)
			}
			wg.Wait()
		}
	}
}

// Doacross runs the wavefront as a doacross loop — `ordered(2)` with
// `depend(sink)` / `depend(source)` — the loop-level alternative to the
// task DAG: the 2-D tile space is one worksharing loop per sweep, and each
// tile waits point-to-point on its north and west neighbours' finished
// flags instead of on task-dependence edges. No tasks, no tokens, no
// per-tile closures; the pipeline lives entirely in the worksharing
// entry's iteration-flag vector. Compared to Ref's barrier per
// anti-diagonal, the flags let the ragged front advance tile by tile.
//
// Tiles update cells in the same order as Serial and respect the same
// dependences, so the result is bit-identical to the serial oracle.
func Doacross(rt *core.Runtime, s Spec, g []float64) {
	nb := int64(s.blocks())
	loops := []sched.Loop{{Begin: 0, End: nb, Step: 1}, {Begin: 0, End: nb, Step: 1}}
	rt.Parallel(func(t *core.Thread) {
		for sweep := 0; sweep < s.Sweeps; sweep++ {
			t.ForDoacross(loops, func(ix []int64, d *core.DoacrossCtx) {
				bi, bj := ix[0], ix[1]
				d.Wait(bi-1, bj) // north tile (vacuous on the first row)
				d.Wait(bi, bj-1) // west tile (vacuous on the first column)
				tile(s, g, int(bi), int(bj))
				d.Post()
			})
		}
	})
}

// OMP runs the wavefront on the gomp runtime: the master spawns one task
// per tile per sweep with depend clauses on per-tile tokens, and the other
// team members execute the released tasks from the region-end barrier (a
// task scheduling point). Consecutive sweeps chain through the tokens too
// — the inout dependence on a tile's own token serialises it across
// sweeps — so the whole multi-sweep DAG is in flight at once: sweep k+1's
// top-left corner starts while sweep k's bottom-right is still draining,
// which a barrier-per-diagonal structure cannot do.
func OMP(rt *core.Runtime, s Spec, g []float64) {
	nb := s.blocks()
	tok := make([]byte, nb*nb)
	rt.Parallel(func(t *core.Thread) {
		if t.Num() != 0 {
			return // non-masters proceed to the barrier and execute tasks
		}
		for sweep := 0; sweep < s.Sweeps; sweep++ {
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
	})
}
