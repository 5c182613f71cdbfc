package device

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/icv"
)

// TestMain doubles as the worker entry point: when the subprocess backend
// re-executes this test binary with GOMP_TARGET_WORKER set, WorkerMain
// serves the pipe protocol and exits instead of running the tests.
func TestMain(m *testing.M) {
	WorkerMain()
	os.Exit(m.Run())
}

// point is the custom element type the struct-mapping conformance test
// maps: pointer-free, so it has a raw wire layout once registered.
type point struct{ X, Y, Z float64 }

func init() {
	RegisterType(point{})

	// Named kernels are resolvable on both ends of the subprocess pipe
	// because parent and worker run this same test binary.
	RegisterKernel("conf.scale", func(rt *core.Runtime, cfg Launch, env *Env) {
		x := env.Get("x").([]float64)
		TeamsFor(rt, cfg, len(x), func(i int, t *core.Thread) {
			x[i] *= 2
		})
	})
	RegisterKernel("conf.saxpy", func(rt *core.Runtime, cfg Launch, env *Env) {
		a := env.Get("a").(*float64)
		x := env.Get("x").([]float64)
		y := env.Get("y").([]float64)
		TeamsFor(rt, cfg, len(x), func(i int, t *core.Thread) {
			y[i] += *a * x[i]
		})
	})
	RegisterKernel("conf.norm", func(rt *core.Runtime, cfg Launch, env *Env) {
		pts := env.Get("pts").([]point)
		out := env.Get("out").([]float64)
		TeamsFor(rt, cfg, len(pts), func(i int, t *core.Thread) {
			p := pts[i]
			out[i] = math.Sqrt(p.X*p.X + p.Y*p.Y + p.Z*p.Z)
		})
	})
	RegisterKernel("conf.sum", func(rt *core.Runtime, cfg Launch, env *Env) {
		x := env.Get("x").([]float64)
		sum := env.Get("sum").(*float64)
		// Serial on purpose: the point is scalar write-back, not speed.
		for _, v := range x {
			*sum += v
		}
	})
	RegisterKernel("conf.panic", func(rt *core.Runtime, cfg Launch, env *Env) {
		panic("deliberate kernel failure")
	})
}

// backends enumerates the conformance targets: device id 0 is the host on a
// plain manager; "subprocess" registers the out-of-process backend as
// device 1 and aims constructs there.
func backends(t *testing.T) []struct {
	name string
	mgr  *Manager
	dev  int
} {
	host := NewManager(nil)
	t.Cleanup(func() { host.Close() })
	sub := NewManager(nil)
	sub.Register(NewSubprocess(nil))
	t.Cleanup(func() { sub.Close() })
	return []struct {
		name string
		mgr  *Manager
		dev  int
	}{
		{"host", host, 0},
		{"subprocess", sub, 1},
	}
}

func randSlice(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.NormFloat64()
	}
	return s
}

// TestConformanceScale round-trips seeded random slices through
// map(tofrom:) on every backend and checks the results against a serial
// oracle — and against each other: host and subprocess must agree
// bit-for-bit because they execute the same kernel code.
func TestConformanceScale(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 7, 64, 1000} {
		in := randSlice(rng, n)
		oracle := make([]float64, n)
		for i, v := range in {
			oracle[i] = v * 2
		}
		var prev []float64
		for _, b := range backends(t) {
			x := append([]float64(nil), in...)
			err := b.mgr.Target(b.dev, "conf.scale", nil, Launch{NumTeams: 2, ThreadLimit: 2},
				Mapping{Kind: MapToFrom, Name: "x", Data: x})
			if err != nil {
				t.Fatalf("%s n=%d: %v", b.name, n, err)
			}
			for i := range x {
				if x[i] != oracle[i] {
					t.Fatalf("%s n=%d: x[%d] = %v, oracle %v", b.name, n, i, x[i], oracle[i])
				}
			}
			if prev != nil {
				for i := range x {
					if x[i] != prev[i] {
						t.Fatalf("n=%d: backends disagree at [%d]: %v vs %v", n, i, x[i], prev[i])
					}
				}
			}
			prev = x
		}
	}
}

// TestConformanceSaxpy exercises a mixed environment: two slices plus a
// scalar mapped through a pointer, with map(to:) inputs and a map(tofrom:)
// output.
func TestConformanceSaxpy(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := randSlice(rng, 256)
	y0 := randSlice(rng, 256)
	a := 1.5
	oracle := make([]float64, len(x))
	for i := range x {
		oracle[i] = y0[i] + a*x[i]
	}
	for _, b := range backends(t) {
		y := append([]float64(nil), y0...)
		av := a
		err := b.mgr.Target(b.dev, "conf.saxpy", nil, Launch{NumTeams: 2},
			Mapping{Kind: MapTo, Name: "a", Data: &av},
			Mapping{Kind: MapTo, Name: "x", Data: x},
			Mapping{Kind: MapToFrom, Name: "y", Data: y})
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		for i := range y {
			if y[i] != oracle[i] {
				t.Fatalf("%s: y[%d] = %v, oracle %v", b.name, i, y[i], oracle[i])
			}
		}
	}
}

// TestConformanceStructElements maps a slice of a user struct type
// (registered with RegisterType so it can cross the pipe) and a map(from:)
// output the kernel fills.
func TestConformanceStructElements(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := make([]point, 128)
	for i := range pts {
		pts[i] = point{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
	}
	oracle := make([]float64, len(pts))
	for i, p := range pts {
		oracle[i] = math.Sqrt(p.X*p.X + p.Y*p.Y + p.Z*p.Z)
	}
	for _, b := range backends(t) {
		out := make([]float64, len(pts))
		err := b.mgr.Target(b.dev, "conf.norm", nil, Launch{NumTeams: 3},
			Mapping{Kind: MapTo, Name: "pts", Data: pts},
			Mapping{Kind: MapFrom, Name: "out", Data: out})
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		for i := range out {
			if out[i] != oracle[i] {
				t.Fatalf("%s: out[%d] = %v, oracle %v", b.name, i, out[i], oracle[i])
			}
		}
	}
}

// TestConformanceScalarWriteBack maps a scalar through &sum and checks the
// kernel's result reaches the caller on every backend.
func TestConformanceScalarWriteBack(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	for _, b := range backends(t) {
		sum := 0.0
		err := b.mgr.Target(b.dev, "conf.sum", nil, Launch{},
			Mapping{Kind: MapTo, Name: "x", Data: x},
			Mapping{Kind: MapToFrom, Name: "sum", Data: &sum})
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		if sum != 15 {
			t.Fatalf("%s: sum = %v, want 15", b.name, sum)
		}
	}
}

// TestDataEnvironmentReuse drives the unstructured data API: enter data
// keeps the buffer resident, two target regions reuse it through the
// present table, target update forces the copy-back, exit data drops the
// last reference. On the subprocess backend the host copy is observably
// stale until the update — proof the kernel ran against a device-side copy.
func TestDataEnvironmentReuse(t *testing.T) {
	for _, b := range backends(t) {
		x := []float64{1, 2, 3, 4}
		if err := b.mgr.TargetEnterData(b.dev, Mapping{Kind: MapTo, Name: "x", Data: x}); err != nil {
			t.Fatalf("%s: enter: %v", b.name, err)
		}
		if got := b.mgr.presentRefs(b.dev, x); got != 1 {
			t.Fatalf("%s: refs after enter = %d, want 1", b.name, got)
		}
		for i := 0; i < 2; i++ {
			err := b.mgr.Target(b.dev, "conf.scale", nil, Launch{},
				Mapping{Kind: MapToFrom, Name: "x", Data: x})
			if err != nil {
				t.Fatalf("%s: target %d: %v", b.name, i, err)
			}
		}
		// The targets' tofrom exits must not copy back while enter data
		// still holds a reference.
		if got := b.mgr.presentRefs(b.dev, x); got != 1 {
			t.Fatalf("%s: refs after targets = %d, want 1", b.name, got)
		}
		if b.name == "subprocess" && x[0] != 1 {
			t.Fatalf("subprocess: host copy refreshed early: x[0] = %v, want stale 1", x[0])
		}
		if err := b.mgr.TargetUpdate(b.dev, Mapping{Kind: MapFrom, Name: "x", Data: x}); err != nil {
			t.Fatalf("%s: update: %v", b.name, err)
		}
		for i, want := range []float64{4, 8, 12, 16} {
			if x[i] != want {
				t.Fatalf("%s: after update x[%d] = %v, want %v", b.name, i, x[i], want)
			}
		}
		if err := b.mgr.TargetExitData(b.dev, Mapping{Kind: MapRelease, Name: "x", Data: x}); err != nil {
			t.Fatalf("%s: exit: %v", b.name, err)
		}
		if got := b.mgr.presentRefs(b.dev, x); got != 0 {
			t.Fatalf("%s: refs after exit = %d, want 0", b.name, got)
		}
	}
}

// TestNestedTargetData checks structured nesting: the inner environment
// bumps the refcount, and only the outermost exit releases the buffer.
func TestNestedTargetData(t *testing.T) {
	m := NewManager(nil)
	defer m.Close()
	x := make([]float64, 8)
	err := m.TargetData(0, func() error {
		if got := m.presentRefs(0, x); got != 1 {
			return fmt.Errorf("outer refs = %d, want 1", got)
		}
		return m.TargetData(0, func() error {
			if got := m.presentRefs(0, x); got != 2 {
				return fmt.Errorf("inner refs = %d, want 2", got)
			}
			return nil
		}, Mapping{Kind: MapToFrom, Name: "x", Data: x})
	}, Mapping{Kind: MapTo, Name: "x", Data: x})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.presentRefs(0, x); got != 0 {
		t.Fatalf("refs after both exits = %d, want 0", got)
	}
}

// TestKernelPanicSurfacesAndWorkerSurvives turns kernel panics into errors
// on both backends; the subprocess worker must keep serving afterwards, and
// after calls with a bad buffer or a bad argument too.
func TestKernelPanicSurfacesAndWorkerSurvives(t *testing.T) {
	for _, b := range backends(t) {
		err := b.mgr.Target(b.dev, "conf.panic", nil, Launch{})
		if err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Fatalf("%s: want panic error, got %v", b.name, err)
		}
		x := []float64{1}
		if err := b.mgr.Target(b.dev, "conf.scale", nil, Launch{},
			Mapping{Kind: MapToFrom, Name: "x", Data: x}); err != nil {
			t.Fatalf("%s: backend unusable after kernel panic: %v", b.name, err)
		}
		if x[0] != 2 {
			t.Fatalf("%s: x[0] = %v after recovery, want 2", b.name, x[0])
		}
		sub, ok := b.mgr.entries[b.dev].dev.(*subprocessDevice)
		if !ok {
			continue
		}
		// A freed buffer fails at the call that names it: nothing is posted
		// to fail later.
		obj := Object{Name: "x", Data: x}
		p, err := sub.Alloc(obj)
		if err == nil {
			err = sub.Free(p)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := sub.MapTo(p, obj); err == nil || !strings.Contains(err.Error(), "unknown buffer") {
			t.Fatalf("map-to into a freed buffer: %v, want unknown buffer at the call", err)
		}
		// An Exec argument the worker cannot view gets an error reply, and
		// the worker keeps serving.
		for _, bad := range []wireArg{
			{name: "x", typ: "float64", count: 1 << 40},
			{name: "x", typ: "no.such.type", count: 1},
			{name: "x", typ: "float64", count: -2},
		} {
			sub.mu.Lock()
			err = sub.wait(&request{op: opExec, name: "conf.scale", args: []wireArg{bad}}, nil)
			sub.mu.Unlock()
			if err == nil || errors.Is(err, errDeviceLost) || !strings.Contains(err.Error(), `argument "x"`) {
				t.Fatalf("exec over %+v: %v, want an argument error from a live worker", bad, err)
			}
		}
		if err := b.mgr.Target(b.dev, "conf.scale", nil, Launch{}, Mapping{Kind: MapToFrom, Name: "x", Data: x}); err != nil || x[0] != 4 {
			t.Fatalf("worker unusable after failed calls: err %v, x[0] = %v, want 4", err, x[0])
		}
	}
}

func TestUnknownKernel(t *testing.T) {
	for _, b := range backends(t) {
		err := b.mgr.Target(b.dev, "conf.no-such-kernel", nil, Launch{})
		if !errors.Is(err, ErrNoKernel) {
			t.Fatalf("%s: want ErrNoKernel, got %v", b.name, err)
		}
	}
}

// TestOffloadPolicies pins down target-offload-var: DISABLED forces the
// host, MANDATORY turns host fallback into an error, and the default
// policy silently falls back for bad ids and closure kernels alike.
func TestOffloadPolicies(t *testing.T) {
	t.Run("disabled pins to host", func(t *testing.T) {
		s := icv.Default()
		s.TargetOffload = icv.OffloadDisabled
		m := NewManager(s)
		defer m.Close()
		// Register a device that cannot execute anything; DISABLED must
		// keep every construct away from it.
		id := m.Register(&mockDev{})
		x := []float64{3}
		if err := m.Target(id, "conf.scale", nil, Launch{},
			Mapping{Kind: MapToFrom, Name: "x", Data: x}); err != nil {
			t.Fatal(err)
		}
		if x[0] != 6 {
			t.Fatalf("x[0] = %v, want 6 (host execution)", x[0])
		}
	})
	t.Run("mandatory rejects bad device id", func(t *testing.T) {
		s := icv.Default()
		s.TargetOffload = icv.OffloadMandatory
		m := NewManager(s)
		defer m.Close()
		err := m.Target(7, "conf.scale", nil, Launch{})
		if !errors.Is(err, ErrBadDevice) {
			t.Fatalf("want ErrBadDevice, got %v", err)
		}
	})
	t.Run("default falls back for bad device id", func(t *testing.T) {
		m := NewManager(nil)
		defer m.Close()
		x := []float64{3}
		if err := m.Target(7, "conf.scale", nil, Launch{},
			Mapping{Kind: MapToFrom, Name: "x", Data: x}); err != nil {
			t.Fatal(err)
		}
		if x[0] != 6 {
			t.Fatalf("x[0] = %v, want 6 (host fallback)", x[0])
		}
	})
	t.Run("closure kernel falls back from subprocess", func(t *testing.T) {
		m := NewManager(nil)
		id := m.Register(NewSubprocess(nil))
		defer m.Close()
		ran := false
		err := m.Target(id, "", func(rt *core.Runtime, cfg Launch, env *Env) { ran = true }, Launch{})
		if err != nil {
			t.Fatal(err)
		}
		if !ran {
			t.Fatal("closure kernel did not run on the host fallback")
		}
	})
	t.Run("mandatory rejects closure on subprocess", func(t *testing.T) {
		s := icv.Default()
		s.TargetOffload = icv.OffloadMandatory
		m := NewManager(s)
		id := m.Register(NewSubprocess(nil))
		defer m.Close()
		err := m.Target(id, "", func(rt *core.Runtime, cfg Launch, env *Env) {}, Launch{})
		if !errors.Is(err, ErrNotOffloadable) {
			t.Fatalf("want ErrNotOffloadable, got %v", err)
		}
	})
}

// TestTargetNowait exercises the asynchronous path: independent regions
// complete under TargetSync, and an asynchronous failure is reported by the
// next sync, then cleared.
func TestTargetNowait(t *testing.T) {
	m := NewManager(nil)
	defer m.Close()
	slices := make([][]float64, 4)
	for i := range slices {
		slices[i] = []float64{float64(i + 1)}
		m.TargetNowait(0, "conf.scale", nil, Launch{},
			Mapping{Kind: MapToFrom, Name: "x", Data: slices[i]})
	}
	if err := m.TargetSync(); err != nil {
		t.Fatal(err)
	}
	for i := range slices {
		if want := float64(2 * (i + 1)); slices[i][0] != want {
			t.Fatalf("slice %d = %v, want %v", i, slices[i][0], want)
		}
	}
	m.TargetNowait(0, "conf.no-such-kernel", nil, Launch{})
	if err := m.TargetSync(); !errors.Is(err, ErrNoKernel) {
		t.Fatalf("want ErrNoKernel from sync, got %v", err)
	}
	if err := m.TargetSync(); err != nil {
		t.Fatalf("sync must clear the reported error, got %v", err)
	}
}

// TestManagerDefaultDevice covers the default-device ICV plumbing:
// DefaultDeviceID resolves through it, and SetDefaultDevice range-checks.
func TestManagerDefaultDevice(t *testing.T) {
	m := NewManager(nil)
	id := m.Register(NewSubprocess(nil))
	defer m.Close()
	if got := m.GetDefaultDevice(); got != 0 {
		t.Fatalf("initial default device = %d, want 0", got)
	}
	if err := m.SetDefaultDevice(id); err != nil {
		t.Fatal(err)
	}
	x := []float64{1}
	if err := m.Target(DefaultDeviceID, "conf.scale", nil, Launch{},
		Mapping{Kind: MapToFrom, Name: "x", Data: x}); err != nil {
		t.Fatal(err)
	}
	if x[0] != 2 {
		t.Fatalf("x[0] = %v, want 2", x[0])
	}
	if err := m.SetDefaultDevice(9); !errors.Is(err, ErrBadDevice) {
		t.Fatalf("want ErrBadDevice, got %v", err)
	}
	if _, err := m.DeviceICVs(id); err != nil {
		t.Fatal(err)
	}
	if m.NumDevices() != 2 {
		t.Fatalf("NumDevices = %d, want 2", m.NumDevices())
	}
}
