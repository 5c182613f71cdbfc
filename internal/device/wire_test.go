package device

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/core"
)

func init() {
	// conf.nop ignores its environment: a launch priced by its maps alone.
	RegisterKernel("conf.nop", func(*core.Runtime, Launch, *Env) {})
}

// liveSubprocess is a manager with one subprocess device whose worker is
// already running, so wire counters start from a quiet connection.
func liveSubprocess(t *testing.T) (*Manager, int, *subprocessDevice) {
	t.Helper()
	m := NewManager(nil)
	sub := NewSubprocess(nil).(*subprocessDevice)
	id := m.Register(sub)
	t.Cleanup(func() { m.Close() })
	if err := sub.Start(); err != nil {
		t.Fatal(err)
	}
	return m, id, sub
}

// wire snapshots a device's wire counters.
type wire struct{ waits, out, in int64 }

func wireOf(s *subprocessDevice) wire {
	s.mu.Lock()
	defer s.mu.Unlock()
	return wire{s.waits, s.wireOut, s.wireIn}
}

func (a wire) since(b wire) wire { return wire{a.waits - b.waits, a.out - b.out, a.in - b.in} }

// TestWireRoundTripsByCount pins the protocol's cost in waits and bytes, not
// in time: what the host blocks for and what crosses the pipe. Mapped data
// lives in the shared arena, so only Exec touches the pipe.
func TestWireRoundTripsByCount(t *testing.T) {
	m, dev, sub := liveSubprocess(t)
	one := 1.0
	const slack = 512 // headers, names and arg records of a frame or two

	t.Run("data constructs wait 0 times, launches once", func(t *testing.T) {
		items := []Mapping{
			{Kind: MapTo, Name: "x", Data: []float64{1, 2, 3}},
			{Kind: MapTo, Name: "y", Data: []float64{4, 5, 6}},
			{Kind: MapTo, Name: "a", Data: &one},
		}
		before := wireOf(sub)
		if err := m.TargetEnterData(dev, items...); err != nil {
			t.Fatal(err)
		}
		if d := wireOf(sub).since(before); d != (wire{}) {
			t.Fatalf("enter data of %d to-items: %+v, want nothing on the wire", len(items), d)
		}
		// Resident launches: exactly one wait each, nothing re-sent.
		for i := 0; i < 3; i++ {
			before = wireOf(sub)
			if err := m.Target(dev, "conf.saxpy", nil, Launch{}, items...); err != nil {
				t.Fatal(err)
			}
			if d := wireOf(sub).since(before); d.waits != 1 || d.out > slack || d.in != replyHeaderLen {
				t.Fatalf("resident launch %d: %+v, want 1 wait, a header out and a bare reply in", i, d)
			}
		}
		before = wireOf(sub)
		for i := range items {
			items[i].Kind = MapFrom
		}
		if err := m.TargetUpdate(dev, items...); err != nil {
			t.Fatal(err)
		}
		for i := range items {
			items[i].Kind = MapRelease
		}
		if err := m.TargetExitData(dev, items...); err != nil {
			t.Fatal(err)
		}
		if d := wireOf(sub).since(before); d != (wire{}) {
			t.Fatalf("update and exit data: %+v, want nothing on the wire", d)
		}
		if y := items[1].Data.([]float64); y[0] != 4+3*1 {
			t.Fatalf("update from the device: y[0] = %v, want 7", y[0])
		}
	})

	t.Run("a tofrom of up to 1 MiB crosses as a header", func(t *testing.T) {
		for _, n := range []int{1, 1000, 1 << 17} {
			x := make([]float64, n)
			before := wireOf(sub)
			if err := m.Target(dev, "conf.scale", nil, Launch{}, Mapping{Kind: MapToFrom, Name: "x", Data: x}); err != nil {
				t.Fatal(err)
			}
			if d := wireOf(sub).since(before); d.waits != 1 || d.out >= slack || d.in >= slack {
				t.Fatalf("n=%d: %d waits, wrote %d and read %d bytes for a %d-byte map(tofrom:); want 1 wait and under %d bytes each way", n, d.waits, d.out, d.in, 8*n, slack)
			}
		}
	})

	t.Run("every target waits once, whatever its maps", func(t *testing.T) {
		var maps []Mapping
		for k := 0; k <= 8; k++ {
			before := wireOf(sub)
			if err := m.Target(dev, "conf.nop", nil, Launch{}, maps...); err != nil {
				t.Fatal(err)
			}
			if d := wireOf(sub).since(before); d.waits != 1 {
				t.Fatalf("target with %d maps waited %d times, want 1", k, d.waits)
			}
			kind := []MapKind{MapToFrom, MapTo, MapFrom, MapAlloc}[k%4]
			maps = append(maps, Mapping{Kind: kind, Name: fmt.Sprint("v", k), Data: make([]float64, 100*k+1)})
		}
	})

	t.Run("alloc frame does not grow with the element count", func(t *testing.T) {
		for _, n := range []int{1, 1 << 20} {
			x := make([]float64, n)
			before := wireOf(sub)
			if err := m.TargetEnterData(dev, Mapping{Kind: MapAlloc, Name: "x", Data: x}); err != nil {
				t.Fatal(err)
			}
			if d := wireOf(sub).since(before); d != (wire{}) {
				t.Fatalf("alloc of %d elements: %+v, want no frame at all", n, d)
			}
			if err := m.TargetExitData(dev, Mapping{Kind: MapDelete, Name: "x", Data: x}); err != nil {
				t.Fatal(err)
			}
		}
	})
	if err := sub.Sync(); err != nil {
		t.Fatalf("the device failed along the way: %v", err)
	}
}

// node cannot cross a pipe: it holds a pointer.
type node struct {
	Val  float64
	Next *node
}

// plain has a raw layout but is never registered.
type plain struct{ A, B int32 }

// TestMappableTypeRule: on an out-of-process device, storage without a raw
// layout and unregistered types are refused at map entry, before a byte is
// sent, with an error naming the mapping, the type and the field; the host
// device takes them all, zero-copy.
func TestMappableTypeRule(t *testing.T) {
	m, dev, sub := liveSubprocess(t)
	type named []float64
	cases := []struct {
		name string
		data any
		want []string
	}{
		{"strings", []string{"a"}, []string{"map(to: v)", "[]string", "string"}},
		{"nested slices", [][]float64{{1}}, []string{"map(to: v)", "[][]float64", "slice"}},
		{"struct with pointer", []node{{Val: 1}}, []string{"map(to: v)", "[]device.node", "field Next", "ptr"}},
		{"pointer to such a struct", &node{}, []string{"map(to: v)", "*device.node", "field Next"}},
		{"unregistered", []plain{{1, 2}}, []string{"map(to: v)", "device.plain", "not registered", "RegisterMapType"}},
		{"named slice type", named{1}, []string{"map(to: v)", "device.named", "[]float64"}},
	}
	for _, c := range cases {
		before := wireOf(sub)
		err := m.TargetEnterData(dev, Mapping{Kind: MapTo, Name: "v", Data: c.data})
		if err == nil {
			t.Fatalf("%s: accepted on the subprocess device", c.name)
		}
		for _, w := range c.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error %q does not mention %q", c.name, err, w)
			}
		}
		if d := wireOf(sub).since(before); d != (wire{}) {
			t.Errorf("%s: rejected after touching the wire: %+v", c.name, d)
		}
		if got := m.presentRefs(dev, c.data); got != 0 {
			t.Errorf("%s: rejected storage is present (refs %d)", c.name, got)
		}
		// The host device maps the same storage without looking inside.
		if err := m.TargetData(0, nil, Mapping{Kind: MapToFrom, Name: "v", Data: c.data}); err != nil {
			t.Errorf("%s: host device refused it: %v", c.name, err)
		}
	}
	// A target that maps a good item, then a bad one, unwinds the good one.
	x := []float64{1}
	if err := m.Target(dev, "conf.scale", nil, Launch{},
		Mapping{Kind: MapToFrom, Name: "x", Data: x},
		Mapping{Kind: MapTo, Name: "v", Data: []string{"a"}}); err == nil {
		t.Fatal("target with an unmappable item ran")
	}
	if got := m.presentRefs(dev, x); got != 0 || x[0] != 1 {
		t.Fatalf("unwound item: refs %d, x[0] %v; want 0 and untouched 1", got, x[0])
	}
	if err := sub.Sync(); err != nil {
		t.Fatalf("device unusable after rejections: %v", err)
	}
}

func TestRegisterTypeRefusesPointerfulTypes(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "field Next") {
			t.Fatalf("RegisterType(node{}) = %v, want a panic naming the field", r)
		}
	}()
	RegisterType(node{})
}

// loopback wires a subprocess device to a WorkerServe running in this
// process over in-memory pipes and the device's own arena. mangle, when
// non-nil, sits between the worker and its reply pipe; hangup closes that
// pipe the way a dying worker would. The returned buffers hold every byte
// that crossed, each way; read them after stop.
func loopback(t testing.TB, mangle func(w io.Writer, hangup func()) io.Writer) (s *subprocessDevice, reqs, reps *bytes.Buffer, stop func()) {
	t.Helper()
	reqR, reqW := io.Pipe() // host → worker
	repR, repW := io.Pipe() // worker → host
	reqs, reps = new(bytes.Buffer), new(bytes.Buffer)
	var out io.Writer = io.MultiWriter(repW, reps)
	if mangle != nil {
		out = mangle(out, func() { repW.Close() })
	}
	s = NewSubprocess(nil).(*subprocessDevice)
	ar, err := newArena(s.window)
	if err != nil {
		t.Fatal(err)
	}
	s.ar = ar
	done := make(chan struct{})
	go func() {
		defer close(done)
		WorkerServe(io.TeeReader(reqR, reqs), out, ar.f)
		repW.Close()
		reqR.Close()
	}()
	s.started = true
	s.startErr = s.connect(reqW, repR)
	stop = func() {
		s.Close()
		reqW.Close()
		<-done
	}
	t.Cleanup(stop)
	return s, reqs, reps, stop
}

// captureWire runs the conformance kernels over a loopback connection and
// returns the request and reply streams they produced, handshake included.
func captureWire(t testing.TB) (reqs, reps []byte) {
	t.Helper()
	s, reqBuf, repBuf, stop := loopback(t, nil)
	if s.startErr != nil {
		t.Fatal(s.startErr)
	}
	m := NewManager(nil)
	dev := m.Register(s)
	rng := rand.New(rand.NewSource(4))
	x, y, a := randSlice(rng, 33), randSlice(rng, 33), 1.5
	pts, out, sum := make([]point, 9), make([]float64, 9), 0.0
	for _, err := range []error{
		m.Target(dev, "conf.scale", nil, Launch{NumTeams: 2, ThreadLimit: 2}, Mapping{Kind: MapToFrom, Name: "x", Data: x}),
		m.Target(dev, "conf.saxpy", nil, Launch{NumTeams: 2},
			Mapping{Kind: MapTo, Name: "a", Data: &a}, Mapping{Kind: MapTo, Name: "x", Data: x}, Mapping{Kind: MapToFrom, Name: "y", Data: y}),
		m.Target(dev, "conf.norm", nil, Launch{NumTeams: 3},
			Mapping{Kind: MapTo, Name: "pts", Data: pts}, Mapping{Kind: MapFrom, Name: "out", Data: out}),
		m.Target(dev, "conf.sum", nil, Launch{},
			Mapping{Kind: MapTo, Name: "x", Data: x}, Mapping{Kind: MapToFrom, Name: "sum", Data: &sum}),
		s.Sync(),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Target(dev, "conf.panic", nil, Launch{}); err == nil {
		t.Fatal("conf.panic did not fail")
	}
	stop()
	return reqBuf.Bytes(), repBuf.Bytes()
}

// TestLoopbackMatchesOracle keeps the loopback harness honest: the same
// kernels, through the same frames, give the serial answer.
func TestLoopbackMatchesOracle(t *testing.T) {
	s, _, _, _ := loopback(t, nil)
	if s.startErr != nil {
		t.Fatal(s.startErr)
	}
	m := NewManager(nil)
	dev := m.Register(s)
	x := []float64{1, 2, 3}
	if err := m.Target(dev, "conf.scale", nil, Launch{}, Mapping{Kind: MapToFrom, Name: "x", Data: x}); err != nil {
		t.Fatal(err)
	}
	if x[0] != 2 || x[1] != 4 || x[2] != 6 {
		t.Fatalf("x = %v, want [2 4 6]", x)
	}
}

// testArenaLen sizes the Go-heap arena the fuzzer decodes Exec arguments
// against.
const testArenaLen = 4096

// decodeRequests applies a request stream the way WorkerServe does, less
// running kernels: every Exec argument becomes a view of a small arena or
// an error. A view is written through, and must lie inside the arena.
func decodeRequests(t *testing.T, br *bufio.Reader) {
	ar := &arena{mem: make([]byte, testArenaLen), size: testArenaLen}
	lo := uintptr(unsafe.Pointer(&ar.mem[0]))
	for {
		req, err := readRequest(br)
		if err != nil || req.op == opInit && (req.n < 0 || req.n > maxInitBytes) {
			return
		}
		if req.op == opInit {
			br.Discard(int(req.n))
		}
		for i := range req.args {
			v, err := ar.view(&req.args[i])
			if err != nil {
				continue
			}
			raw := Object{Data: v}.raw()
			if p := uintptr(unsafe.Pointer(unsafe.SliceData(raw))); len(raw) > 0 && (p < lo || p+uintptr(len(raw)) > lo+testArenaLen) {
				t.Fatalf("argument %+v: view of %d bytes at %#x lies outside the arena [%#x, %#x)", req.args[i], len(raw), p, lo, lo+testArenaLen)
			}
			clear(raw)
		}
	}
}

// execFrame is one Exec request over the given arguments.
func execFrame(args ...wireArg) []byte {
	return appendRequest(nil, &request{op: opExec, name: "conf.scale", args: args})
}

// FuzzFrameDecode feeds arbitrary bytes to both decoders: the worker's
// request side (frames decoded and each Exec argument checked and viewed
// against a small arena, as WorkerServe does before a kernel runs) and the
// host's reply side. Neither may panic, no view may reach outside the
// arena, and neither may allocate by a length the input declares: names
// and error texts are capped before they are read.
func FuzzFrameDecode(f *testing.F) {
	reqs, reps := captureWire(f)
	f.Add(reqs)
	f.Add(reps)
	f.Add(reqs[:reqHeaderLen])
	f.Add(reps[:replyHeaderLen])
	f64 := func(off uint64, count int64) wireArg {
		return wireArg{name: "x", typ: "float64", count: count, off: off}
	}
	f.Add(execFrame(f64(testArenaLen-8, 1), f64(testArenaLen, 1), f64(testArenaLen, 0), f64(testArenaLen+64, 1)))
	f.Add(execFrame(f64(0, 1<<62)))
	f.Add(execFrame(f64(0, math.MaxInt64/8+1), wireArg{name: "p", typ: "device.point", count: math.MaxInt64 / 16}))
	f.Add(execFrame(f64(0, -2), f64(0, -1), f64(4, -1)))
	f.Add(execFrame(wireArg{name: "x", typ: "no.such.type", count: 1}))
	many := make([]wireArg, 255)
	for i := range many {
		many[i] = f64(uint64(16*i), int64(i%3))
	}
	f.Add(execFrame(many...))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)

		decodeRequests(t, bufio.NewReader(bytes.NewReader(data)))
		br := bufio.NewReader(bytes.NewReader(data))
		for {
			if _, _, err := readReply(br); err != nil {
				break
			}
		}

		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20+4*uint64(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
	})
}
