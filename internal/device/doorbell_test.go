//go:build unix

package device

import (
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

func init() {
	// bell.work bumps x, then holds the worker for *us microseconds: a hold
	// past pipeSpin parks the waiting host.
	RegisterKernel("bell.work", func(_ *core.Runtime, _ Launch, env *Env) {
		x := env.Get("x").([]float64)
		for i := range x {
			x[i]++
		}
		if us := *env.Get("us").(*int64); us > 0 {
			time.Sleep(time.Duration(us) * time.Microsecond)
		}
	})
	// bell.hang holds the worker until it is killed.
	RegisterKernel("bell.hang", func(*core.Runtime, Launch, *Env) {
		if !IsWorker() {
			panic("bell.hang outside a worker")
		}
		select {}
	})
}

// TestDoorbellParkAndWake separates 2000 resident launches by host pauses
// and worker holds drawn from either side of pipeSpin, in a seeded order,
// so that each side sometimes finds the other polling and sometimes parked.
// Every launch is seen once, and every result is the oracle's.
func TestDoorbellParkAndWake(t *testing.T) {
	m, dev, sub := liveSubprocess(t)
	x, us := make([]float64, 64), new(int64)
	maps := []Mapping{{Kind: MapToFrom, Name: "x", Data: x}, {Kind: MapTo, Name: "us", Data: us}}
	if err := m.TargetEnterData(dev, maps...); err != nil {
		t.Fatal(err)
	}
	sleeps := []int64{0, 50, 99, 101, 150, 1000} // µs
	rng := rand.New(rand.NewSource(27))
	const launches = 2000
	before := wireOf(sub)
	for i := 1; i <= launches; i++ {
		*us = sleeps[rng.Intn(len(sleeps))]
		if err := m.TargetUpdate(dev, Mapping{Kind: MapTo, Name: "us", Data: us}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Duration(sleeps[rng.Intn(len(sleeps))]) * time.Microsecond)
		if err := m.Target(dev, "bell.work", nil, Launch{}, maps...); err != nil {
			t.Fatalf("launch %d: %v", i, err)
		}
		if err := m.TargetUpdate(dev, Mapping{Kind: MapFrom, Name: "x", Data: x}); err != nil {
			t.Fatal(err)
		}
		for j := range x {
			if x[j] != float64(i) {
				t.Fatalf("launch %d: x[%d] = %v, want %d", i, j, x[j], i)
			}
		}
	}
	if d := wireOf(sub).since(before); d.waits != launches {
		t.Fatalf("%d launches waited %d times", launches, d.waits)
	}
}

// TestDoorbellLostWakeupStress: two goroutines interleave Target and
// TargetNowait on one device over resident data; a lost wake would hang a
// launch, and a doubled frame would miscount.
func TestDoorbellLostWakeupStress(t *testing.T) {
	m, dev, _ := liveSubprocess(t)
	const launches = 5000
	xs := [2][]float64{make([]float64, 8), make([]float64, 8)}
	for _, x := range xs {
		if err := m.TargetEnterData(dev, Mapping{Kind: MapTo, Name: "x", Data: x}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for g, x := range xs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < launches/2 && errs[g] == nil; i++ {
				item := Mapping{Kind: MapToFrom, Name: "x", Data: x}
				if i%2 == 0 {
					errs[g] = m.Target(dev, "arena.check", nil, Launch{}, item)
				} else {
					m.TargetNowait(dev, "arena.check", nil, Launch{}, item)
				}
			}
		}()
	}
	wg.Wait()
	errs[2] = m.TargetSync()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	for g, x := range xs {
		if err := m.TargetExitData(dev, Mapping{Kind: MapFrom, Name: "x", Data: x}); err != nil {
			t.Fatal(err)
		}
		for j := range x {
			if x[j] != launches/2 {
				t.Fatalf("goroutine %d: x[%d] = %v after %d launches", g, j, x[j], launches/2)
			}
		}
	}
}

// TestDoorbellPeerDeath: a worker that dies while the host is parked is a
// lost device at once (TestWorkerKilledDuringExec covers a host that is
// still polling), and a host that hangs up on a polling or parked worker
// ends WorkerServe cleanly.
func TestDoorbellPeerDeath(t *testing.T) {
	t.Run("worker killed while the host is parked", func(t *testing.T) {
		m, dev, sub := liveSubprocess(t)
		held := resident(t, m, dev)
		proc, mb := sub.cmd.Process, sub.end.mailbox
		go func() {
			// The host unmaps the mailbox only once the worker is gone.
			for mb.parked[0].Load() == 0 {
				time.Sleep(100 * time.Microsecond)
			}
			proc.Kill()
		}()
		err := within(t, 2*time.Second, "target whose worker dies while the host is parked", func() error {
			return m.Target(dev, "bell.hang", nil, Launch{}, Mapping{Kind: MapToFrom, Name: "x", Data: held})
		})
		checkLost(t, m, dev, err, "exec", held, proc.Pid)
	})
	for _, c := range []struct {
		name   string
		parked bool
	}{{"host hangs up on a polling worker", false}, {"host hangs up on a parked worker", true}} {
		t.Run(c.name, func(t *testing.T) {
			s, served := loopback(t, WorkerServe)
			if s.startErr != nil {
				t.Fatal(s.startErr)
			}
			mb := s.end.mailbox
			for deadline := time.Now().Add(time.Second); c.parked && mb.parked[1].Load() == 0; {
				if time.Now().After(deadline) {
					t.Fatal("the idle worker never parked")
				}
				time.Sleep(100 * time.Microsecond)
			}
			s.Close()
			if err := within(t, 2*time.Second, "WorkerServe after the host hung up", served); err != nil {
				t.Fatalf("WorkerServe = %v, want nil", err)
			}
		})
	}
}

// mapped allocates data on s, copies it in, and returns the buffer and the
// Exec argument that names it.
func mapped(t *testing.T, s *subprocessDevice, name string, data any) (Ptr, wireArg) {
	t.Helper()
	obj := Object{Name: name, Data: data}
	p, err := s.Alloc(obj)
	if err == nil {
		err = s.MapTo(p, obj)
	}
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.bufs[p]
	return p, wireArg{name: name, typ: b.typ, count: b.count, off: uint64(b.off)}
}

// execRaw posts one Exec frame through the mailbox.
func execRaw(s *subprocessDevice, name string, cfg Launch, args ...wireArg) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.call(&request{op: opExec, name: name, cfg: cfg, args: args}, nil)
}

// TestViewReuseAllocatesNothing: the worker handles an Exec frame equal to
// the last one that checked out without allocating; frames that differ
// each time are decoded and checked, which allocates.
func TestViewReuseAllocatesNothing(t *testing.T) {
	s, _ := loopback(t, WorkerServe)
	if s.startErr != nil {
		t.Fatal(s.startErr)
	}
	x := make([]float64, 16)
	px, ax := mapped(t, s, "x", x)
	_, aus := mapped(t, s, "us", new(int64))
	args := []wireArg{ax, aus}
	runs := 0
	launch := func(cfg Launch) func() {
		return func() {
			runs++
			if err := execRaw(s, "bell.work", cfg, args...); err != nil {
				t.Fatal(err)
			}
		}
	}
	launch(Launch{})()
	if allocs := testing.AllocsPerRun(200, launch(Launch{})); allocs != 0 {
		t.Errorf("a repeated Exec frame: %v allocations per launch, want 0", allocs)
	}
	teams := 0
	if allocs := testing.AllocsPerRun(20, func() { teams++; launch(Launch{NumTeams: teams})() }); allocs == 0 {
		t.Error("Exec frames that differ each time allocated nothing: the measurement misses the worker")
	}
	if err := s.MapFrom(px, Object{Name: "x", Data: x}); err != nil || x[0] != float64(runs) {
		t.Fatalf("x[0] = %v after %d launches (err %v)", x[0], runs, err)
	}
}

// TestViewReuseChecksEveryByte: a frame that differs from the cached one in
// only its count or only its offset still gets the argument error, and so
// does a failed frame sent again; the cached frame still runs after each.
func TestViewReuseChecksEveryByte(t *testing.T) {
	s, _ := loopback(t, WorkerServe)
	if s.startErr != nil {
		t.Fatal(s.startErr)
	}
	x := []float64{1, 2, 3}
	px, good := mapped(t, s, "x", x)
	s.mu.Lock()
	past := uint64(s.ar.size)
	s.mu.Unlock()
	runs := 0
	run := func() {
		t.Helper()
		if err := execRaw(s, "conf.scale", Launch{}, good); err != nil {
			t.Fatalf("the cached frame failed: %v", err)
		}
		runs++
	}
	run()
	for _, c := range []struct {
		what string
		bad  wireArg
	}{
		{"count", wireArg{name: good.name, typ: good.typ, count: 1 << 40, off: good.off}},
		{"offset past the object", wireArg{name: good.name, typ: good.typ, count: good.count, off: past}},
		{"offset in the mailbox", wireArg{name: good.name, typ: good.typ, count: good.count, off: mailboxLen - 64}},
	} {
		run()
		for again := 0; again < 2; again++ {
			err := execRaw(s, "conf.scale", Launch{}, c.bad)
			if err == nil || errors.Is(err, errDeviceLost) || !strings.Contains(err.Error(), `argument "x"`) {
				t.Fatalf("only the %s differs from the cached frame (sent %d times): %v, want an argument error from a live worker", c.what, again+1, err)
			}
		}
	}
	run()
	if err := s.MapFrom(px, Object{Name: "x", Data: x}); err != nil {
		t.Fatal(err)
	}
	if f := float64(int(1) << runs); x[0] != f || x[2] != 3*f {
		t.Fatalf("x = %v after %d doublings", x, runs)
	}
}
