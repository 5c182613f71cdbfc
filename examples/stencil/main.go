// Stencil: 2-D heat diffusion — the CFD-adjacent workload class the
// paper's introduction motivates (the NPB kernels are "representative of
// CFD applications"), in two flavours:
//
//   - Jacobi: u' = ¼(N+S+E+W) with fixed hot boundary, one worksharing
//     loop per sweep and a max-reduction for the convergence residual.
//   - Gauss–Seidel smoothing via doacross: each cell reads its
//     already-updated north and west neighbours, so tiles pipeline through
//     ordered(2) + depend(sink)/depend(source) (Thread.ForDoacross) — a
//     cross-iteration dependence no plain worksharing loop can express.
//
// Run it with:
//
//	go run ./examples/stencil [-n 512] [-iters 500] [-gs 4]
package main

import (
	"flag"
	"fmt"
	"math"
	"time"

	gomp "repro"
)

func main() {
	n := flag.Int("n", 512, "grid side length")
	iters := flag.Int("iters", 500, "max sweeps")
	tol := flag.Float64("tol", 1e-4, "convergence residual")
	gs := flag.Int("gs", 4, "Gauss–Seidel doacross smoothing sweeps after Jacobi")
	flag.Parse()
	size := *n

	u := make([]float64, size*size)
	v := make([]float64, size*size)
	// Hot top edge, cold elsewhere.
	for x := 0; x < size; x++ {
		u[x] = 100
		v[x] = 100
	}

	start := time.Now()
	sweeps := 0
	for it := 0; it < *iters; it++ {
		var residual float64
		gomp.Parallel(func(t *gomp.Thread) {
			// Interior rows split across the team; the residual is a
			// max-reduction over the team's rows.
			r := gomp.ReduceFor(t, size-2, gomp.OpMax, func(row int, acc float64) float64 {
				y := row + 1
				base := y * size
				for x := 1; x < size-1; x++ {
					i := base + x
					next := 0.25 * (u[i-1] + u[i+1] + u[i-size] + u[i+size])
					v[i] = next
					if d := math.Abs(next - u[i]); d > acc {
						acc = d
					}
				}
				return acc
			}, gomp.Schedule(gomp.Static, 0))
			t.Master(func() { residual = r })
		})
		u, v = v, u
		sweeps++
		if residual < *tol {
			break
		}
	}
	elapsed := time.Since(start)

	// Gauss–Seidel smoothing: cell (y,x) reads the already-updated north
	// and west neighbours, a cross-iteration dependence. The tile grid runs
	// as a doacross loop — `ordered(2)` with `depend(sink: bi-1,bj)`,
	// `depend(sink: bi,bj-1)` and `depend(source)` — so the wavefront of
	// ready tiles pipelines across the team with no barrier per diagonal.
	const tileSide = 64
	nb := (size - 2 + tileSide - 1) / tileSide
	tiles := []gomp.Loop{{Begin: 0, End: int64(nb), Step: 1}, {Begin: 0, End: int64(nb), Step: 1}}
	gsStart := time.Now()
	for sweep := 0; sweep < *gs; sweep++ {
		gomp.Parallel(func(t *gomp.Thread) {
			t.ForDoacross(tiles, func(ix []int64, d *gomp.DoacrossCtx) {
				bi, bj := int(ix[0]), int(ix[1])
				d.Wait(ix[0]-1, ix[1]) // north tile's updates
				d.Wait(ix[0], ix[1]-1) // west tile's updates
				ylo, yhi := 1+bi*tileSide, min(size-1, 1+(bi+1)*tileSide)
				xlo, xhi := 1+bj*tileSide, min(size-1, 1+(bj+1)*tileSide)
				for y := ylo; y < yhi; y++ {
					base := y * size
					for x := xlo; x < xhi; x++ {
						i := base + x
						u[i] = 0.25 * (u[i-1] + u[i+1] + u[i-size] + u[i+size])
					}
				}
				d.Post()
			})
		})
	}
	gsElapsed := time.Since(gsStart)

	// Checksum: total heat (diffusion conserves boundary-driven totals
	// deterministically for a fixed sweep count).
	var heat float64
	gomp.Parallel(func(t *gomp.Thread) {
		h := gomp.ReduceFor(t, size*size, gomp.OpSum, func(i int, acc float64) float64 {
			return acc + u[i]
		})
		t.Master(func() { heat = h })
	})

	fmt.Printf("grid %dx%d, %d Jacobi sweeps in %.3fs (%.1f Msite-updates/s)\n",
		size, size, sweeps, elapsed.Seconds(),
		float64(sweeps)*float64((size-2)*(size-2))/elapsed.Seconds()/1e6)
	fmt.Printf("%d Gauss–Seidel doacross sweeps (%dx%d tiles) in %.3fs\n", *gs, nb, nb, gsElapsed.Seconds())
	fmt.Printf("total heat = %.3f\n", heat)
	fmt.Printf("centre temperature = %.4f\n", u[(size/2)*size+size/2])
}
