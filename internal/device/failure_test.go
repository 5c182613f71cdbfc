//go:build unix

package device

import (
	"bytes"
	"errors"
	"io"
	"os"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
)

func init() {
	// conf.die kills the process it runs in: a worker dying mid-kernel.
	RegisterKernel("conf.die", func(rt *core.Runtime, cfg Launch, env *Env) {
		if !IsWorker() {
			panic("conf.die outside a worker")
		}
		syscall.Kill(os.Getpid(), syscall.SIGKILL)
		select {}
	})
}

// within fails the test when fn has not returned after d: a hang is the
// failure these tests exist to catch.
func within(t *testing.T, d time.Duration, what string, fn func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		t.Fatalf("%s: no answer after %v", what, d)
		return nil
	}
}

// checkLost asserts the sticky-failure contract after first, the error of
// the call that hit the failure: it names the device, the op and the cause;
// every later call returns the same error at once; the present table is
// empty (held is storage that was resident) and nothing is copied back;
// the host has dropped its arena; Close is quick; the child, if there was
// one, is gone.
func checkLost(t *testing.T, m *Manager, dev int, first error, op string, held []float64, pid int) {
	t.Helper()
	if first == nil {
		t.Fatal("the failing call returned no error")
	}
	sub := m.entries[dev].dev.(*subprocessDevice)
	sub.mu.Lock()
	mapped := sub.ar != nil
	sub.mu.Unlock()
	if mapped {
		t.Error("the lost device still maps its arena")
	}
	if !errors.Is(first, errDeviceLost) {
		t.Fatalf("error does not mark the device lost: %v", first)
	}
	t.Logf("the failing call returned: %v", first)
	for _, want := range []string{"subprocess device", op} {
		if !strings.Contains(first.Error(), want) {
			t.Errorf("error %q does not name %q", first, want)
		}
	}
	if got := m.presentRefs(dev, held); got != 0 {
		t.Errorf("resident storage still present after the failure (refs %d)", got)
	}
	was := append([]float64(nil), held...)
	x := []float64{1}
	for _, call := range []func() error{
		func() error {
			return m.Target(dev, "conf.scale", nil, Launch{}, Mapping{Kind: MapToFrom, Name: "x", Data: x})
		},
		func() error { return m.TargetData(dev, nil, Mapping{Kind: MapTo, Name: "x", Data: x}) },
		func() error { return m.TargetExitData(dev, Mapping{Kind: MapFrom, Name: "held", Data: held}) },
		func() error { return m.TargetUpdate(dev, Mapping{Kind: MapFrom, Name: "held", Data: held}) },
	} {
		err := within(t, 2*time.Second, "call on a lost device", call)
		if i := strings.Index(first.Error(), "subprocess device"); err != nil && !strings.HasSuffix(err.Error(), first.Error()[i:]) {
			t.Errorf("later call returned a different error:\n first %v\n later %v", first, err)
		}
	}
	if err := m.Target(dev, "conf.scale", nil, Launch{}); !errors.Is(err, errDeviceLost) {
		t.Errorf("launch on a lost device: %v", err)
	}
	if x[0] != 1 || !slices.Equal(held, was) {
		t.Errorf("a lost device wrote to host storage: x %v, held %v (was %v)", x, held, was)
	}
	t0 := time.Now()
	within(t, 6*time.Second, "Manager.Close", m.Close)
	if d := time.Since(t0); d > 4*time.Second {
		t.Errorf("Close took %v", d)
	}
	if pid != 0 {
		if err := syscall.Kill(pid, 0); err != syscall.ESRCH {
			t.Errorf("worker pid %d still exists after the failure (kill -0: %v)", pid, err)
		}
	}
}

// resident maps a small array onto dev and leaves it there.
func resident(t *testing.T, m *Manager, dev int) []float64 {
	t.Helper()
	held := []float64{1, 2, 3}
	if err := m.TargetEnterData(dev, Mapping{Kind: MapTo, Name: "held", Data: held}); err != nil {
		t.Fatal(err)
	}
	if err := m.Target(dev, "conf.scale", nil, Launch{}, Mapping{Kind: MapToFrom, Name: "x", Data: held}); err != nil {
		t.Fatal(err)
	}
	return held
}

// TestWorkerKilledBetweenCalls kills the worker with data resident, then
// launches a target that also maps fresh storage: its MapTo is a local copy
// into the arena and succeeds, and the Exec after it finds the worker gone.
func TestWorkerKilledBetweenCalls(t *testing.T) {
	m, dev, sub := liveSubprocess(t)
	held := resident(t, m, dev)
	pid := sub.cmd.Process.Pid
	if err := sub.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	fresh := []float64{5, 6}
	err := within(t, 5*time.Second, "target after the worker was killed", func() error {
		return m.Target(dev, "conf.saxpy", nil, Launch{},
			Mapping{Kind: MapToFrom, Name: "y", Data: held}, Mapping{Kind: MapToFrom, Name: "x", Data: fresh})
	})
	if fresh[0] != 5 || fresh[1] != 6 || m.presentRefs(dev, fresh) != 0 {
		t.Errorf("freshly mapped storage: %v, refs %d; want untouched [5 6] and absent", fresh, m.presentRefs(dev, fresh))
	}
	checkLost(t, m, dev, err, "exec", held, pid)
}

// TestWorkerKilledDuringExec: the kernel kills its worker at once, while
// the host still polls the mailbox; the host parks, reads the end of the
// worker's pipe and loses the device.
func TestWorkerKilledDuringExec(t *testing.T) {
	m, dev, sub := liveSubprocess(t)
	held := resident(t, m, dev)
	pid := sub.cmd.Process.Pid
	err := within(t, 2*time.Second, "target whose worker dies mid-kernel", func() error {
		return m.Target(dev, "conf.die", nil, Launch{}, Mapping{Kind: MapToFrom, Name: "x", Data: held})
	})
	checkLost(t, m, dev, err, "exec", held, pid)
	if !strings.Contains(err.Error(), "killed") {
		t.Errorf("error %q does not carry the worker's exit status", err)
	}
}

// fakeWorker stands in for WorkerServe: it serves the hello and the Init
// handshake, then answers the first Exec by posting the length word damage
// returns after writing into the reply area, and waits for the host to
// hang up.
func fakeWorker(damage func(area []byte) uint32) func(io.Reader, io.Writer, *os.File) error {
	return func(r io.Reader, w io.Writer, f *os.File) error {
		ar, err := mapArena(f, arenaWindow)
		if err != nil {
			return err
		}
		defer ar.unmap()
		e := newEndpoint(ar.mailbox(), 1, r, w)
		if _, err := w.Write(appendReply(nil, statusOK, helloMagic)); err != nil {
			return err
		}
		if _, err := e.recv(); err != nil {
			return err
		}
		if err := e.post(uint32(copy(e.rep[:], appendReply(nil, statusOK, "")))); err != nil {
			return err
		}
		if _, err := e.recv(); err != nil {
			return err
		}
		if err := e.post(damage(e.area(1))); err != nil {
			return err
		}
		_, err = e.recv()
		return err
	}
}

// damagedReply launches a target on a device whose reply to it is damaged,
// checks that the device is lost, and that the error names the cause.
func damagedReply(t *testing.T, cause string, damage func(area []byte) uint32) {
	s, _ := loopback(t, fakeWorker(damage))
	if s.startErr != nil {
		t.Fatal(s.startErr)
	}
	m := NewManager(nil)
	dev := m.Register(s)
	held := []float64{1, 2, 3}
	if err := m.TargetEnterData(dev, Mapping{Kind: MapTo, Name: "held", Data: held}); err != nil {
		t.Fatal(err)
	}
	err := within(t, 5*time.Second, "target whose reply is damaged", func() error {
		return m.Target(dev, "conf.scale", nil, Launch{}, Mapping{Kind: MapToFrom, Name: "x", Data: held})
	})
	checkLost(t, m, dev, err, "exec", held, 0)
	if err != nil && !strings.Contains(err.Error(), cause) {
		t.Errorf("cause is not %q: %v", cause, err)
	}
}

func TestHostDecoderTruncatedReply(t *testing.T) {
	t.Run("length word past the reply area", func(t *testing.T) {
		damagedReply(t, "exceeds the 65552-byte mailbox area", func(area []byte) uint32 {
			return uint32(copy(area, appendReply(nil, statusOK, ""))) + maxErrBytes + 1
		})
	})
	t.Run("header cut by the length word", func(t *testing.T) {
		damagedReply(t, io.ErrUnexpectedEOF.Error(), func(area []byte) uint32 {
			copy(area, appendReply(nil, statusOK, ""))
			return 7
		})
	})
}

func TestHostDecoderGarbledReply(t *testing.T) {
	t.Run("bad magic", func(t *testing.T) {
		damagedReply(t, "magic", func(area []byte) uint32 {
			return uint32(copy(area, bytes.Repeat([]byte{0xA5}, replyHeaderLen)))
		})
	})
	t.Run("an OK reply carrying text", func(t *testing.T) {
		damagedReply(t, "reply carries 8 bytes, expected none", func(area []byte) uint32 {
			return uint32(copy(area, appendReply(nil, statusOK, "surprise")))
		})
	})
}

// TestWorkerServeDamagedRequests posts damaged request frames to a live
// worker: it returns an error naming the damage and posts no reply; it
// never hangs or panics.
func TestWorkerServeDamagedRequests(t *testing.T) {
	frame := execFrame(wireArg{name: "x", typ: "float64", count: 1, off: mailboxLen}, wireArg{name: "y", typ: "float64", count: 2, off: mailboxLen + 64})
	damaged := func(at int, b byte) []byte {
		bad := bytes.Clone(frame)
		bad[at] = b
		return bad
	}
	for _, c := range []struct {
		name  string
		frame []byte
		n     uint32 // the length word
		want  string
	}{
		{"length word past the request area", frame, maxRequestLen + 1, "exceeds"},
		{"frame cut inside a record", frame, reqHeaderLen + uint32(len("conf.scale")) + argHeaderLen + 1, io.ErrUnexpectedEOF.Error()},
		{"bad magic", damaged(0, frame[0]^0xFF), uint32(len(frame)), "magic"},
		{"unknown op", damaged(4, 0xEE), uint32(len(frame)), "unknown op"},
		{"name over the cap", damaged(7, 0xFF), uint32(len(frame)), "cap"},
	} {
		s, served := loopback(t, WorkerServe)
		if s.startErr != nil {
			t.Fatal(s.startErr)
		}
		replies := s.end.seq[1].Load()
		copy(s.end.area(0), c.frame)
		if err := s.end.post(c.n); err != nil {
			t.Fatal(err)
		}
		err := within(t, 5*time.Second, "WorkerServe on a damaged frame", served)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one naming %q", c.name, err, c.want)
		}
		if got := s.end.seq[1].Load(); got != replies {
			t.Errorf("%s: the worker posted %d replies to a bad frame", c.name, got-replies)
		}
	}
}
