package wavefront

import (
	"repro/internal/core"
	"repro/internal/sched"
)

// Doacross runs the wavefront as a doacross loop — `ordered(2)` with
// `depend(sink)` / `depend(source)` — the loop-level alternative to the
// task DAG: the 2-D tile space is one worksharing loop per sweep, and each
// tile waits point-to-point on its north and west neighbours' finished
// flags instead of on task-dependence edges. No tasks, no tokens, no
// per-tile closures; the pipeline lives entirely in the worksharing
// entry's iteration-flag vector, and the ragged front advances tile by
// tile.
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
