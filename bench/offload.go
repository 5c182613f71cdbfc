package main

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	gomp "repro"
	"repro/internal/device"
	"repro/internal/icv"
)

// Kernels run by name on the subprocess device: the worker is this same
// binary, so registering at init makes parent and worker agree.
func init() {
	gomp.RegisterKernel("bench.empty", func(*gomp.Runtime, gomp.Launch, *gomp.TargetEnv) {})
	gomp.RegisterKernel("bench.bump", func(_ *gomp.Runtime, _ gomp.Launch, env *gomp.TargetEnv) {
		x := env.Get("x").([]float64)
		for i := range x {
			x[i]++
		}
	})
	gomp.RegisterKernel("bench.saxpy", func(rt *gomp.Runtime, cfg gomp.Launch, env *gomp.TargetEnv) {
		y := env.Get("y").([]float64)
		coef := env.Get("coef").([]float64)
		a, b := coef[0], coef[1]
		const chunk = 4096
		gomp.TeamsFor(rt, cfg, (len(y)+chunk-1)/chunk, func(c int, _ *gomp.Thread) {
			for i := c * chunk; i < min(len(y), (c+1)*chunk); i++ {
				y[i] = a*y[i] + b
			}
		})
	})
}

// offload is the target family on the out-of-process device, used three
// ways: many small launches against resident data (bound by the pipe round
// trip), map(tofrom:) of a large array around a saxpy (bound by encode, copy
// and decode), and small launches that each map their small array (both at
// once, as a target with no data region around it pays them).
type offload struct {
	c       *config
	mgr     *device.Manager
	dev     int
	x0, y0  []float64 // seeded inputs
	xHost   []float64 // the launch phase's result on the host device
	mHost   []float64 // the mapped-launch phase's result on the host device
	yHost   []float64 // the map phase's result on the host device
	spawnMs float64
}

var saxpyCoef = []float64{0.5, 1}

func (w *offload) setup(c *config) error {
	w.c = c
	sz := c.sz
	rng := rand.New(rand.NewSource(c.seed))
	w.x0 = make([]float64, sz.launchElems)
	for i := range w.x0 {
		w.x0[i] = float64(rng.Intn(1000))
	}
	w.y0 = make([]float64, sz.mapElems)
	for i := range w.y0 {
		w.y0[i] = rng.Float64()
	}
	s := icv.Default()
	s.NumThreads = []int{c.nproc}
	// A worker that fails to start must fail the run, not fall back to
	// the host and report host numbers as the device's.
	s.TargetOffload = icv.OffloadMandatory
	w.mgr = device.NewManager(s)
	w.dev = w.mgr.Register(device.NewSubprocess(s))
	t0 := time.Now()
	if err := w.mgr.Target(w.dev, "bench.empty", nil, device.Launch{}); err != nil {
		return fmt.Errorf("start device worker: %w", err)
	}
	w.spawnMs = time.Since(t0).Seconds() * 1e3
	var err error
	if w.xHost, err = w.launchPhase(0); err != nil {
		return fmt.Errorf("host launch phase: %w", err)
	}
	if w.mHost, err = w.mappedPhase(0); err != nil {
		return fmt.Errorf("host mapped-launch phase: %w", err)
	}
	if w.yHost, err = w.mapPhase(0); err != nil {
		return fmt.Errorf("host map phase: %w", err)
	}
	// The host device is itself held to the benchmark's own serial loop.
	for i, y := range w.y0 {
		for r := 0; r < sz.mapReps; r++ {
			y = saxpyCoef[0]*y + saxpyCoef[1]
		}
		if w.yHost[i] != y {
			return fmt.Errorf("host map phase: element %d is %v, serial loop gives %v", i, w.yHost[i], y)
		}
	}
	return nil
}

func (w *offload) close() {
	if w.mgr != nil {
		w.mgr.Close() // ends the worker and waits for it
		w.mgr = nil
	}
}

// launchPhase runs the small kernel sz.launches times inside one target
// data region, so the array stays on the device between launches.
func (w *offload) launchPhase(dev int) ([]float64, error) {
	x := slices.Clone(w.x0)
	resident := device.Mapping{Kind: device.MapToFrom, Name: "x", Data: x}
	err := w.mgr.TargetData(dev, func() error {
		for i := 0; i < w.c.sz.launches; i++ {
			if err := w.mgr.Target(dev, "bench.bump", nil, device.Launch{}, resident); err != nil {
				return err
			}
		}
		return nil
	}, resident)
	return x, err
}

// mappedPhase runs the small kernel sz.mappedLaunches times with no data
// region around it: every launch maps the array to the device and back.
func (w *offload) mappedPhase(dev int) ([]float64, error) {
	x := slices.Clone(w.x0)
	for i := 0; i < w.c.sz.mappedLaunches; i++ {
		err := w.mgr.Target(dev, "bench.bump", nil, device.Launch{}, device.Mapping{Kind: device.MapToFrom, Name: "x", Data: x})
		if err != nil {
			return nil, err
		}
	}
	return x, nil
}

// mapPhase maps the large array to the device and back around each saxpy.
func (w *offload) mapPhase(dev int) ([]float64, error) {
	y := slices.Clone(w.y0)
	for i := 0; i < w.c.sz.mapReps; i++ {
		err := w.mgr.Target(dev, "bench.saxpy", nil, device.Launch{NumTeams: 1},
			device.Mapping{Kind: device.MapToFrom, Name: "y", Data: y},
			device.Mapping{Kind: device.MapTo, Name: "coef", Data: saxpyCoef})
		if err != nil {
			return nil, err
		}
	}
	return y, nil
}

// bumped reports whether x is x0 with n added to every element, the launch
// phases' arithmetic oracle.
func (w *offload) bumped(x []float64, n int) bool {
	for i := range x {
		if x[i] != w.x0[i]+float64(n) {
			return false
		}
	}
	return len(x) == len(w.x0)
}

func (w *offload) run(p *pass) {
	sz := w.c.sz
	p.rounds(func(r int) {
		var x, y []float64
		var err error
		p.timed("device.launches", func() { x, err = w.launchPhase(w.dev) })
		p.verify(err == nil && slices.Equal(x, w.xHost) && w.bumped(x, sz.launches),
			"offload launch phase round %d: result differs from host device or oracle (err %v)", r, err)
		p.timed("device.maps", func() { y, err = w.mapPhase(w.dev) })
		p.verify(err == nil && slices.Equal(y, w.yHost), "offload map phase round %d: result differs from host device (err %v)", r, err)
		p.timed("device.mapped_launches", func() { x, err = w.mappedPhase(w.dev) })
		p.verify(err == nil && slices.Equal(x, w.mHost) && w.bumped(x, sz.mappedLaunches),
			"offload mapped-launch phase round %d: result differs from host device or oracle (err %v)", r, err)
	})
}

func (w *offload) metrics(p *pass) map[string]measure {
	sz := w.c.sz
	launch, maps, mapped := p.med("device.launches"), p.med("device.maps"), p.med("device.mapped_launches")
	mb := 2 * 8 * float64(sz.mapElems) * float64(sz.mapReps) / 1e6 // MB to the device and back
	return map[string]measure{
		"solve_s":                {launch.v + maps.v + mapped.v, launch.n},
		"form_a_s":               launch,
		"form_b_s":               maps,
		"form_c_s":               mapped,
		"target_per_s":           p.rate("device.launches", float64(sz.launches)),
		"map_MB_per_s":           p.rate("device.maps", mb),
		"device.worker_spawn_ms": one(w.spawnMs),
	}
}

func (w *offload) probes(c *config) map[string]measure { return deviceProbes(c, w.mgr, w.dev) }
