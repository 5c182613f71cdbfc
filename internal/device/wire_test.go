package device

import (
	"bufio"
	"bytes"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

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
// in time: what the host blocks for and what crosses the pipe.
func TestWireRoundTripsByCount(t *testing.T) {
	m, dev, sub := liveSubprocess(t)
	const slack = 512 // headers, names and arg records of a few frames

	t.Run("enter data posts, the first launch waits once", func(t *testing.T) {
		items := []Mapping{
			{Kind: MapTo, Name: "x", Data: []float64{1, 2, 3}},
			{Kind: MapTo, Name: "y", Data: []float64{4, 5, 6}},
			{Kind: MapTo, Name: "a", Data: new(float64)},
		}
		before := wireOf(sub)
		if err := m.TargetEnterData(dev, items...); err != nil {
			t.Fatal(err)
		}
		if d := wireOf(sub).since(before); d.waits != 0 || d.in != 0 {
			t.Fatalf("enter data of %d to-items waited %d times and read %d bytes, want 0 and 0", len(items), d.waits, d.in)
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
		for i := range items {
			items[i].Kind = MapRelease
		}
		before = wireOf(sub)
		if err := m.TargetExitData(dev, items...); err != nil {
			t.Fatal(err)
		}
		if d := wireOf(sub).since(before); d.waits != 0 {
			t.Fatalf("release exit waited %d times, want 0", d.waits)
		}
	})

	t.Run("target with one tofrom waits at most twice and moves n bytes each way", func(t *testing.T) {
		for _, n := range []int{1, 1000, 1 << 17} {
			x := make([]float64, n)
			bytes := int64(8 * n)
			before := wireOf(sub)
			if err := m.Target(dev, "conf.scale", nil, Launch{}, Mapping{Kind: MapToFrom, Name: "x", Data: x}); err != nil {
				t.Fatal(err)
			}
			d := wireOf(sub).since(before)
			if d.waits > 2 {
				t.Fatalf("n=%d: %d waits, want at most 2", n, d.waits)
			}
			if d.out < bytes || d.out > bytes+slack || d.in < bytes || d.in > bytes+slack {
				t.Fatalf("n=%d: wrote %d and read %d bytes for a %d-byte map(tofrom:), want that plus headers each way", n, d.out, d.in, bytes)
			}
		}
	})

	t.Run("alloc frame does not grow with the element count", func(t *testing.T) {
		var sizes []int64
		for _, n := range []int{1, 1 << 20} {
			x := make([]float64, n)
			before := wireOf(sub)
			if err := m.TargetEnterData(dev, Mapping{Kind: MapAlloc, Name: "x", Data: x}); err != nil {
				t.Fatal(err)
			}
			sizes = append(sizes, wireOf(sub).since(before).out)
			if err := m.TargetExitData(dev, Mapping{Kind: MapDelete, Name: "x", Data: x}); err != nil {
				t.Fatal(err)
			}
		}
		if sizes[0] != sizes[1] || sizes[0] > slack {
			t.Fatalf("alloc of 1 element wrote %d bytes, of 2^20 elements %d; want equal and small", sizes[0], sizes[1])
		}
	})
	if err := sub.Sync(); err != nil {
		t.Fatalf("a posted op failed along the way: %v", err)
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
// process over in-memory pipes. mangle, when non-nil, sits between the
// worker and its reply pipe; hangup closes that pipe the way a dying
// worker would. The returned buffers hold every byte that crossed, each
// way; read them after stop.
func loopback(t testing.TB, mangle func(w io.Writer, hangup func()) io.Writer) (s *subprocessDevice, reqs, reps *bytes.Buffer, stop func()) {
	t.Helper()
	reqR, reqW := io.Pipe() // host → worker
	repR, repW := io.Pipe() // worker → host
	reqs, reps = new(bytes.Buffer), new(bytes.Buffer)
	var out io.Writer = io.MultiWriter(repW, reps)
	if mangle != nil {
		out = mangle(out, func() { repW.Close() })
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		WorkerServe(io.TeeReader(reqR, reqs), out)
		repW.Close()
		reqR.Close()
	}()
	s = NewSubprocess(nil).(*subprocessDevice)
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

// decodeRequests applies a request stream to a small fixed buffer table the
// way WorkerServe does, less Alloc (whose size the stream declares) and
// Exec (which would run kernels).
func decodeRequests(t *testing.T, br *bufio.Reader) {
	wk := &worker{bufs: map[uint64]workerBuf{}}
	for id, n := range map[uint64]int64{1: 8, 2: 0, 3: -1} {
		b, err := newWorkerBuf("float64", n)
		if err != nil {
			t.Fatal(err)
		}
		wk.bufs[id] = b
	}
	for {
		req, err := readRequest(br)
		if err != nil {
			return
		}
		switch req.op {
		case opMapTo, opFree:
			if _, err := wk.post(&req, br); err != nil {
				return
			}
		case opMapFrom, opSync:
			var out []byte
			wk.run(&req, &out)
		}
	}
}

// FuzzFrameDecode feeds arbitrary bytes to both decoders: the worker's
// request side (frames applied to a small fixed buffer table, as
// WorkerServe applies them, less Alloc and Exec) and the host's reply side.
// Neither may panic, and neither may allocate by a length the input
// declares: payloads land in the buffer they target or are skipped, names
// and error texts are capped before they are read.
func FuzzFrameDecode(f *testing.F) {
	reqs, reps := captureWire(f)
	f.Add(reqs)
	f.Add(reps)
	f.Add(reqs[:reqHeaderLen])
	f.Add(reps[:replyHeaderLen])
	f.Add(appendRequest(nil, &request{op: opMapTo, buf: 1, n: 1 << 40}))
	f.Add(appendRequest(nil, &request{op: opAlloc, buf: 9, name: "float64", n: 1 << 40}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)

		decodeRequests(t, bufio.NewReader(bytes.NewReader(data)))
		br := bufio.NewReader(bytes.NewReader(data))
		for dst := make([]byte, 64); ; {
			if _, _, err := readReply(br, dst); err != nil {
				break
			}
		}

		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20+4*uint64(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
	})
}
