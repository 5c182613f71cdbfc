//go:build unix

package device

import (
	"bufio"
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

func TestWorkerKilledDuringExec(t *testing.T) {
	m, dev, sub := liveSubprocess(t)
	held := resident(t, m, dev)
	pid := sub.cmd.Process.Pid
	err := within(t, 5*time.Second, "target whose worker dies mid-kernel", func() error {
		return m.Target(dev, "conf.die", nil, Launch{}, Mapping{Kind: MapToFrom, Name: "x", Data: held})
	})
	checkLost(t, m, dev, err, "exec", held, pid)
	if !strings.Contains(err.Error(), "killed") {
		t.Errorf("error %q does not carry the worker's exit status", err)
	}
}

// Reply-stream damage, seen by the host decoder. The handshake is 52 bytes
// (hello frame, Init's bare reply); the first reply after it is what gets
// damaged.
const handshakeReplyBytes = replyHeaderLen + len(helloMagic) + replyHeaderLen

// damaged passes n bytes through, then calls hit on everything after.
type damaged struct {
	w   io.Writer
	n   int
	hit func(p []byte) (int, error)
}

func (d *damaged) Write(p []byte) (int, error) {
	if d.n >= len(p) {
		d.n -= len(p)
		return d.w.Write(p)
	}
	k, err := d.w.Write(p[:d.n])
	if err != nil {
		return k, err
	}
	m, err := d.hit(p[d.n:])
	d.n = 0
	return k + m, err
}

func TestHostDecoderTruncatedReply(t *testing.T) {
	s, _, _, _ := loopback(t, func(w io.Writer, hangup func()) io.Writer {
		return &damaged{w: w, n: handshakeReplyBytes + 7, hit: func([]byte) (int, error) {
			hangup()
			return 0, io.ErrClosedPipe
		}}
	})
	if s.startErr != nil {
		t.Fatal(s.startErr)
	}
	m := NewManager(nil)
	dev := m.Register(s)
	held := []float64{1, 2, 3}
	if err := m.TargetEnterData(dev, Mapping{Kind: MapTo, Name: "held", Data: held}); err != nil {
		t.Fatal(err)
	}
	err := within(t, 5*time.Second, "target whose reply is cut short", func() error {
		return m.Target(dev, "conf.scale", nil, Launch{}, Mapping{Kind: MapToFrom, Name: "x", Data: held})
	})
	checkLost(t, m, dev, err, "exec", held, 0)
	if !errors.Is(err, io.ErrUnexpectedEOF) && !strings.Contains(err.Error(), "unexpected EOF") {
		t.Errorf("cause is not the truncation: %v", err)
	}
}

func TestHostDecoderGarbledReply(t *testing.T) {
	s, _, _, _ := loopback(t, func(w io.Writer, _ func()) io.Writer {
		return &damaged{w: w, n: handshakeReplyBytes, hit: func(p []byte) (int, error) {
			return w.Write(bytes.Repeat([]byte{0xA5}, len(p)))
		}}
	})
	if s.startErr != nil {
		t.Fatal(s.startErr)
	}
	m := NewManager(nil)
	dev := m.Register(s)
	held := []float64{1, 2, 3}
	if err := m.TargetEnterData(dev, Mapping{Kind: MapTo, Name: "held", Data: held}); err != nil {
		t.Fatal(err)
	}
	err := within(t, 5*time.Second, "target whose reply is garbage", func() error {
		return m.Target(dev, "conf.scale", nil, Launch{}, Mapping{Kind: MapToFrom, Name: "x", Data: held})
	})
	checkLost(t, m, dev, err, "exec", held, 0)
	if !strings.Contains(err.Error(), "magic") {
		t.Errorf("cause is not the bad header: %v", err)
	}
}

// TestWorkerServeDamagedRequests cuts and garbles a real request stream:
// the worker returns — nil when the cut fell between frames, an error
// otherwise — and never hangs, panics or replies out of step.
func TestWorkerServeDamagedRequests(t *testing.T) {
	reqs, _ := captureWire(t)
	ar, err := newArena(arenaWindow)
	if err != nil {
		t.Fatal(err)
	}
	defer ar.f.Close()
	defer ar.unmap()
	if err := ar.f.Truncate(arenaGrain); err != nil { // room for the captured spans
		t.Fatal(err)
	}
	serve := func(in []byte) (replies []byte, err error) {
		var out bytes.Buffer
		err = within(t, 5*time.Second, "WorkerServe on a damaged stream", func() error {
			return WorkerServe(bytes.NewReader(in), &out, ar.f)
		})
		return out.Bytes(), err
	}
	full, err := serve(reqs)
	if err != nil {
		t.Fatalf("intact stream: %v", err)
	}
	// Frame boundaries of the intact stream.
	boundary := map[int]bool{0: true}
	for off := 0; off < len(reqs); {
		off += frameLen(t, reqs[off:])
		boundary[off] = true
	}
	for cut := 0; cut < len(reqs); cut += 1 + cut/16 {
		got, err := serve(reqs[:cut])
		if boundary[cut] && err != nil {
			t.Errorf("cut at frame boundary %d: %v", cut, err)
		}
		if !boundary[cut] && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("cut inside a frame at %d: err = %v, want unexpected EOF", cut, err)
		}
		if !bytes.HasPrefix(full, got) {
			t.Errorf("cut at %d: replies are not a prefix of the intact run's", cut)
		}
	}
	// A garbled header: the second frame's magic.
	bad := append([]byte(nil), reqs...)
	bad[frameLen(t, reqs)] ^= 0xFF
	if _, err := serve(bad); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("garbled magic: err = %v", err)
	}
	// A garbled op and an oversized name.
	bad = append([]byte(nil), reqs...)
	bad[frameLen(t, reqs)+4] = 0xEE
	if _, err := serve(bad); err == nil || !strings.Contains(err.Error(), "unknown op") {
		t.Errorf("garbled op: err = %v", err)
	}
	bad = append([]byte(nil), reqs...)
	bad[frameLen(t, reqs)+7] = 0xFF
	if _, err := serve(bad); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Errorf("oversized name: err = %v", err)
	}
}

// frameLen is the length of the request frame at the head of b, Init's
// payload included.
func frameLen(t *testing.T, b []byte) int {
	t.Helper()
	rd := bytes.NewReader(b)
	br := bufio.NewReader(rd)
	req, err := readRequest(br)
	if err != nil {
		t.Fatal(err)
	}
	n := len(b) - rd.Len() - br.Buffered()
	if req.op == opInit {
		n += int(req.n)
	}
	return n
}
