//go:build unix

package device

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
)

func init() {
	// arena.check bumps its tofrom input, insists its alloc and from
	// buffers read as zeros, then dirties them for whoever reuses the span.
	RegisterKernel("arena.check", func(rt *core.Runtime, cfg Launch, env *Env) {
		for _, name := range env.Names() {
			switch v := env.Get(name).(type) {
			case []float64:
				for i := range v {
					if strings.HasPrefix(name, "x") {
						v[i]++
					} else if v[i] != 0 {
						panic(fmt.Sprintf("%s[%d] = %v, want 0", name, i, v[i]))
					} else {
						v[i] = 7
					}
				}
			case *point:
				if *v != (point{}) {
					panic(fmt.Sprintf("%s = %v, want zero", name, *v))
				}
				*v = point{7, 7, 7}
			}
		}
	})
}

// arenaSize reads a live device's arena size and high-water mark.
func arenaSize(sub *subprocessDevice) (size, top int64) {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	return sub.ar.size, sub.ar.top
}

// TestArenaReuseAndZeroFill runs 200 cycles of targets over mixed-size
// map(tofrom:), map(alloc:) and map(from:) items, in a shuffled
// order each cycle, plus a map(from:) data region with no kernel: after the
// first cycle every span is a reused one a previous kernel dirtied. The
// arena stays at the size the first cycle left it, the kernel sees zeros in
// every alloc and from buffer, and the data region copies back zeros.
func TestArenaReuseAndZeroFill(t *testing.T) {
	m, dev, sub := liveSubprocess(t)
	rng := rand.New(rand.NewSource(5))
	sizes := []int{1, 7, 8, 9, 100, 1000, 4096, 1 << 15, 100000}
	var size0, top0 int64
	for cycle := 0; cycle < 200; cycle++ {
		var maps []Mapping
		var xs [][]float64
		for i, n := range sizes {
			x := make([]float64, n)
			for j := range x {
				x[j] = float64(cycle + j)
			}
			kinds := []MapKind{MapToFrom, MapAlloc, MapFrom}
			kind := kinds[(i+cycle)%len(kinds)]
			name := fmt.Sprint("x", i)
			if kind != MapToFrom {
				name = fmt.Sprint(kind, i)
				clear(x)
			} else {
				xs = append(xs, x)
			}
			maps = append(maps, Mapping{Kind: kind, Name: name, Data: x})
		}
		maps = append(maps, Mapping{Kind: MapFrom, Name: "p", Data: new(point)})
		rng.Shuffle(len(maps), func(i, j int) { maps[i], maps[j] = maps[j], maps[i] })
		if err := m.Target(dev, "arena.check", nil, Launch{}, maps...); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		for _, x := range xs {
			for j := range x {
				if x[j] != float64(cycle+j)+1 {
					t.Fatalf("cycle %d: tofrom item of %d came back with [%d] = %v", cycle, len(x), j, x[j])
				}
			}
		}
		for _, mp := range maps {
			if mp.Kind == MapFrom && mp.Name != "p" && slices.ContainsFunc(mp.Data.([]float64), func(v float64) bool { return v != 7 }) {
				t.Fatalf("cycle %d: %s did not come back as the kernel wrote it", cycle, mp.Name)
			}
		}
		g := make([]float64, sizes[rng.Intn(len(sizes))])
		for j := range g {
			g[j] = -1
		}
		if err := m.TargetData(dev, nil, Mapping{Kind: MapFrom, Name: "g", Data: g}); err != nil {
			t.Fatal(err)
		}
		if slices.ContainsFunc(g, func(v float64) bool { return v != 0 }) {
			t.Fatalf("cycle %d: map(from:) with no kernel copied back a previous buffer's data", cycle)
		}
		if cycle == 0 {
			size0, top0 = arenaSize(sub)
		} else if size, top := arenaSize(sub); size != size0 || top != top0 {
			t.Fatalf("cycle %d: arena %d bytes, high-water %d; the first cycle left %d and %d", cycle, size, top, size0, top0)
		}
	}
}

// TestArenaPerDevice: two subprocess devices in one manager get arenas of
// their own. The same first span of each holds different data, and
// neither device's kernels see the other's.
func TestArenaPerDevice(t *testing.T) {
	m := NewManager(nil)
	defer m.Close()
	devs := []int{m.Register(NewSubprocess(nil)), m.Register(NewSubprocess(nil))}
	data := [][]float64{{1, 2, 3}, {10, 20, 30}}
	for i, dev := range devs {
		if err := m.TargetEnterData(dev, Mapping{Kind: MapTo, Name: "x", Data: data[i]}); err != nil {
			t.Fatal(err)
		}
	}
	a, b := m.entries[devs[0]].dev.(*subprocessDevice), m.entries[devs[1]].dev.(*subprocessDevice)
	if a.ar.f == b.ar.f || &a.ar.mem[0] == &b.ar.mem[0] {
		t.Fatal("two devices share an arena")
	}
	for round := 0; round < 3; round++ {
		for i, dev := range devs {
			if err := m.Target(dev, "conf.scale", nil, Launch{}, Mapping{Kind: MapToFrom, Name: "x", Data: data[i]}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, dev := range devs {
		if err := m.TargetExitData(dev, Mapping{Kind: MapFrom, Name: "x", Data: data[i]}); err != nil {
			t.Fatal(err)
		}
	}
	if !slices.Equal(data[0], []float64{8, 16, 24}) || !slices.Equal(data[1], []float64{80, 160, 240}) {
		t.Fatalf("device results %v and %v; want [8 16 24] and [80 160 240]", data[0], data[1])
	}
}

// arenaHandles counts this process's descriptors and mappings of arena
// objects.
func arenaHandles(t *testing.T) (fds, maps int) {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if target, _ := os.Readlink(filepath.Join("/proc/self/fd", e.Name())); strings.Contains(target, "gomp-device-arena") {
			fds++
		}
	}
	b, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Fatal(err)
	}
	return fds, strings.Count(string(b), "gomp-device-arena")
}

// TestArenaReleasedOnClose: after Manager.Close the host has unmapped the
// arena and closed its descriptor.
func TestArenaReleasedOnClose(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("reads /proc")
	}
	fds0, maps0 := arenaHandles(t)
	m := NewManager(nil)
	dev := m.Register(NewSubprocess(nil))
	x := []float64{1}
	if err := m.Target(dev, "conf.scale", nil, Launch{}, Mapping{Kind: MapToFrom, Name: "x", Data: x}); err != nil {
		t.Fatal(err)
	}
	if fds, maps := arenaHandles(t); fds != fds0+1 || maps != maps0+1 {
		t.Fatalf("live device: %d arena fds and %d mappings, want %d and %d", fds, maps, fds0+1, maps0+1)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if fds, maps := arenaHandles(t); fds != fds0 || maps != maps0 {
		t.Fatalf("after Close: %d arena fds and %d mappings, want %d and %d", fds, maps, fds0, maps0)
	}
}

// TestMappingFailureStaysWithItsCaller: two goroutines share one device
// with a 1 MiB arena window, and one of them maps past it. Its own calls
// fail with device memory exhausted, the other's never fail, and the
// device stays usable: a mapping failure is not a lost device.
func TestMappingFailureStaysWithItsCaller(t *testing.T) {
	m := NewManager(nil)
	defer m.Close()
	sub := NewSubprocess(nil).(*subprocessDevice)
	sub.window = arenaGrain
	dev := m.Register(sub)
	big := make([]float64, arenaGrain/8+1)
	bigTarget := func() error {
		return m.Target(dev, "conf.scale", nil, Launch{}, Mapping{Kind: MapToFrom, Name: "big", Data: big})
	}
	small := make([][]float64, 2)
	for i := range small {
		small[i] = []float64{1}
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 50 && errs[0] == nil; i++ {
			if err := bigTarget(); err == nil || !strings.Contains(err.Error(), "device memory exhausted") || errors.Is(err, errDeviceLost) {
				errs[0] = fmt.Errorf("oversized target %d: %v", i, err)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50 && errs[1] == nil; i++ {
			errs[1] = m.Target(dev, "conf.scale", nil, Launch{}, Mapping{Kind: MapToFrom, Name: "x", Data: small[0]})
		}
	}()
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	if small[0][0] != 1<<50 {
		t.Fatalf("small target ran %v times, want 2^50 after 50 doublings", small[0][0])
	}
	// The same pair as nowait targets: the sync reports the oversized one.
	m.TargetNowait(dev, "conf.scale", nil, Launch{}, Mapping{Kind: MapToFrom, Name: "big", Data: big})
	m.TargetNowait(dev, "conf.scale", nil, Launch{}, Mapping{Kind: MapToFrom, Name: "x", Data: small[1]})
	if err := m.TargetSync(); err == nil || !strings.Contains(err.Error(), "map(tofrom: big)") || !strings.Contains(err.Error(), "exhausted") {
		t.Fatalf("nowait pair: %v, want the oversized mapping's failure", err)
	}
	if small[1][0] != 2 || m.presentRefs(dev, big) != 0 || big[0] != 0 {
		t.Fatalf("nowait pair: small %v, big refs %d, big[0] %v; want 2, 0, 0", small[1][0], m.presentRefs(dev, big), big[0])
	}
	if err := sub.Sync(); err != nil {
		t.Fatalf("device unusable after a mapping failure: %v", err)
	}
}
