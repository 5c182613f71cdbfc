package device

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"reflect"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/icv"
)

// WorkerEnv is the environment variable marking a process as a device
// worker. The subprocess backend re-executes the current binary with it
// set; WorkerMain detects it and turns the process into a kernel server.
const WorkerEnv = "GOMP_TARGET_WORKER"

// helloMagic opens the worker's reply stream so the parent can tell a
// serving worker apart from a binary that forgot to call WorkerMain.
const helloMagic = "gomp-device-worker-2"

// wireBufLen sizes the buffered reader and writer on each end of a pipe: a
// pipe's own capacity, so a frame whose payload fits is one write.
const wireBufLen = 64 << 10

// errDeviceLost marks a sticky transport failure: the worker is gone and
// its buffers with it, so the present table drops the device's entries.
var errDeviceLost = errors.New("device lost")

// IsWorker reports whether this process was spawned as a device worker.
func IsWorker() bool { return os.Getenv(WorkerEnv) != "" }

// WorkerMain turns a worker process into a kernel server on its standard
// pipes and exits when the parent closes the connection; in a non-worker
// process it returns immediately. Programs that use the subprocess backend
// call it first thing in main, after kernel registrations — the re-executed
// binary reaches the same call and serves instead of running the program.
func WorkerMain() {
	if !IsWorker() {
		return
	}
	if err := WorkerServe(spinning(pollable(os.Stdin)), os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "gomp device worker: %v\n", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// worker is the serving side's state: the buffer table and the runtime
// kernels run on.
type worker struct {
	bufs map[uint64]workerBuf
	rt   *core.Runtime
}

// workerBuf is one device buffer: val is what kernels get from Env.Get (a
// slice, or a pointer to one boxed value — the shapes the host backend
// hands out), mem the same storage as bytes.
type workerBuf struct {
	val any
	mem []byte
}

func newWorkerBuf(typeName string, count int64) (workerBuf, error) {
	t, ok := typesByName.Load(typeName)
	if !ok {
		return workerBuf{}, fmt.Errorf("type %q is not registered in the worker", typeName)
	}
	elem := t.(reflect.Type)
	var val any
	switch {
	case count == -1:
		val = reflect.New(elem).Interface()
	case count < 0 || (elem.Size() > 0 && uint64(count) > math.MaxInt/uint64(elem.Size())):
		return workerBuf{}, fmt.Errorf("element count %d of %s out of range", count, elem)
	default:
		val = reflect.MakeSlice(reflect.SliceOf(elem), int(count), int(count)).Interface()
	}
	return workerBuf{val: val, mem: Object{Data: val}.raw()}, nil
}

// WorkerServe runs the worker loop on an explicit connection (exported for
// tests and custom transports): hello, the Init handshake that builds the
// runtime, then requests applied to the local buffer table. It returns nil
// when the stream ends between frames and an error when it ends inside one
// or stops making sense — the worker never guesses where the next frame
// starts.
func WorkerServe(r io.Reader, w io.Writer) error {
	br := bufio.NewReaderSize(r, wireBufLen)
	bw := bufio.NewWriterSize(w, wireBufLen)
	send := func(status byte, payload []byte) error {
		if err := writeReply(bw, status, payload); err != nil {
			return err
		}
		return bw.Flush()
	}
	if err := send(statusOK, []byte(helloMagic)); err != nil {
		return err
	}
	first, err := readRequest(br)
	if err == io.EOF {
		return nil
	}
	if err != nil {
		return fmt.Errorf("handshake: %w", err)
	}
	if first.op != opInit || first.n < 0 || first.n > maxInitBytes {
		return fmt.Errorf("handshake: want init with at most %d payload bytes, got %s with %d", maxInitBytes, opName(first.op), first.n)
	}
	icvJSON := make([]byte, first.n)
	if _, err := readPayload(br, icvJSON, first.n); err != nil {
		return fmt.Errorf("handshake: %w", err)
	}
	icvs := icv.Default()
	if err := json.Unmarshal(icvJSON, icvs); err != nil {
		return fmt.Errorf("handshake: ICVs: %w", err)
	}
	wk := &worker{bufs: map[uint64]workerBuf{}, rt: core.NewRuntime(icvs)}
	defer wk.rt.Pool().Shutdown()
	if err := send(statusOK, nil); err != nil {
		return err
	}

	posted := "" // first failure among posted ops since the last reply
	for {
		req, err := readRequest(br)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		switch req.op {
		case opInit:
			return fmt.Errorf("init after the handshake")
		case opAlloc, opMapTo, opFree:
			fail, err := wk.post(&req, br)
			if err != nil {
				return err
			}
			if fail != "" && posted == "" {
				posted = fmt.Sprintf("worker: %s buffer %d: %s", opName(req.op), req.buf, fail)
			}
			continue
		}
		// A waited op. One that follows a failed posted op does not run:
		// its inputs are not what the host thinks they are.
		status, out := statusOK, []byte(nil)
		if posted != "" {
			status, out, posted = statusPosted, []byte(posted), ""
		} else if fail := wk.run(&req, &out); fail != "" {
			status, out = statusErr, []byte("worker: "+fail)
		}
		if err := send(status, out); err != nil {
			return err
		}
	}
}

// post applies one posted op, reading MapTo's payload straight into the
// buffer it targets. fail is the op's own failure, err a broken stream.
func (wk *worker) post(req *request, r *bufio.Reader) (fail string, err error) {
	switch req.op {
	case opAlloc:
		b, err := newWorkerBuf(req.name, req.n)
		if err != nil {
			return err.Error(), nil
		}
		wk.bufs[req.buf] = b
	case opMapTo:
		b, ok := wk.bufs[req.buf]
		mismatch, err := readPayload(r, b.mem, req.n)
		switch {
		case err != nil:
			return "", err
		case !ok:
			return "unknown buffer", nil
		case mismatch:
			return fmt.Sprintf("%d payload bytes for a buffer of %d", req.n, len(b.mem)), nil
		}
	case opFree:
		delete(wk.bufs, req.buf)
	}
	return "", nil
}

// run applies one waited op; *out is the reply payload.
func (wk *worker) run(req *request, out *[]byte) (fail string) {
	switch req.op {
	case opMapFrom:
		b, ok := wk.bufs[req.buf]
		if !ok {
			return fmt.Sprintf("map-from: unknown buffer %d", req.buf)
		}
		*out = b.mem
	case opExec:
		return wk.exec(req)
	case opSync:
		// The request/reply round trip is the barrier.
	}
	return ""
}

// exec runs one kernel against the buffer table, converting panics into
// wire errors.
func (wk *worker) exec(req *request) (fail string) {
	k, ok := LookupKernel(req.name)
	if !ok {
		return fmt.Sprintf("%v: %q", ErrNoKernel, req.name)
	}
	vals := make(map[string]any, len(req.args))
	for _, a := range req.args {
		b, ok := wk.bufs[uint64(a.Ptr)]
		if !ok {
			return fmt.Sprintf("kernel %q: unknown buffer %d for %q", req.name, a.Ptr, a.Name)
		}
		vals[a.Name] = b.val
	}
	defer func() {
		if r := recover(); r != nil {
			fail = fmt.Sprintf("kernel %q panicked: %v", req.name, r)
		}
	}()
	k(wk.rt, req.cfg, NewEnv(vals))
	return ""
}

// subprocessDevice proxies Device calls to a worker child over pipes. The
// child is spawned lazily on first use; all operations serialise on one
// connection. Alloc, MapTo and Free are posted into the buffered writer;
// Exec, MapFrom and Sync flush it and wait for one reply, which also
// carries the failure of any posted op since the last one.
type subprocessDevice struct {
	icvs *icv.Set

	mu       sync.Mutex
	started  bool
	startErr error
	broken   error // sticky: a transport failure, or Close
	cmd      *exec.Cmd
	stdin    io.Closer
	w        *bufio.Writer
	r        *bufio.Reader
	scratch  []byte // request encoding, reused
	next     Ptr

	// Wire accounting since spawn, for tests: flush-and-wait cycles, and
	// bytes written and read, headers included.
	waits, wireOut, wireIn int64
}

// NewSubprocess builds the out-of-process backend. The worker inherits
// icvs (cloned; nil = defaults) for its runtime. The child is not spawned
// until the first device operation.
func NewSubprocess(icvs *icv.Set) Device {
	if icvs == nil {
		icvs = icv.Default()
	}
	return &subprocessDevice{icvs: icvs.Clone()}
}

func (s *subprocessDevice) Name() string    { return "subprocess" }
func (s *subprocessDevice) InProcess() bool { return false }

// Start spawns the worker child, idempotently. A worker process never
// starts workers of its own (no recursive offload), and a binary that does
// not serve the worker protocol is detected by a handshake timeout instead
// of a hang.
func (s *subprocessDevice) Start() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.startLocked()
}

func (s *subprocessDevice) startLocked() error {
	if s.started {
		return s.startErr
	}
	s.started = true
	s.startErr = s.spawn()
	return s.startErr
}

func (s *subprocessDevice) spawn() error {
	if IsWorker() {
		return fmt.Errorf("subprocess device: refusing to nest workers (already a worker)")
	}
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("subprocess device: %v", err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), WorkerEnv+"=1")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("subprocess device: %v", err)
	}
	s.cmd = cmd
	return s.connect(stdin, spinning(stdout))
}

// connect runs the handshake over an established connection: the worker's
// hello, under a timeout so a binary that does not serve the protocol is
// an error instead of a hang, then Init with the device's ICV set so the
// worker's runtime mirrors it.
func (s *subprocessDevice) connect(stdin io.WriteCloser, stdout io.Reader) error {
	icvJSON, err := json.Marshal(s.icvs)
	if err != nil {
		return fmt.Errorf("subprocess device: ICVs: %v", err)
	}
	s.stdin = stdin
	s.w, s.r = bufio.NewWriterSize(stdin, wireBufLen), bufio.NewReaderSize(stdout, wireBufLen)
	hello := make(chan error, 1)
	go func(r *bufio.Reader) {
		got := make([]byte, len(helloMagic))
		if _, _, err := readReply(r, got); err != nil {
			hello <- err
		} else if string(got) != helloMagic {
			hello <- fmt.Errorf("bad hello %q", got)
		} else {
			hello <- nil
		}
	}(s.r)
	select {
	case err := <-hello:
		if err != nil {
			return s.fail("handshake", err)
		}
	case <-time.After(10 * time.Second):
		// Killing the child closes its pipe, which ends the reader too.
		return s.fail("handshake", errors.New("timed out; does main call device.WorkerMain()?"))
	}
	return s.wait(&request{op: opInit, n: int64(len(icvJSON))}, icvJSON, nil)
}

// readyLocked gates every operation: a failed device answers with its
// sticky error at once; otherwise the worker is started if need be.
func (s *subprocessDevice) readyLocked() error {
	if s.broken != nil {
		return s.broken
	}
	return s.startLocked()
}

// post writes one request frame and its payload into the buffered writer;
// the caller holds s.mu and has passed readyLocked.
func (s *subprocessDevice) post(req *request, payload []byte) error {
	bad := len(req.name) > maxNameLen || len(req.args) > math.MaxUint8
	for _, a := range req.args {
		bad = bad || len(a.Name) > maxNameLen
	}
	if bad {
		return fmt.Errorf("subprocess device: %s %q: a name over %d bytes or more than %d map items", opName(req.op), req.name, maxNameLen, math.MaxUint8)
	}
	s.scratch = appendRequest(s.scratch[:0], req)
	if _, err := s.w.Write(s.scratch); err != nil {
		return s.fail(opName(req.op), err)
	}
	if _, err := s.w.Write(payload); err != nil {
		return s.fail(opName(req.op), err)
	}
	s.wireOut += int64(len(s.scratch) + len(payload))
	return nil
}

// wait posts req, flushes everything posted so far and reads the one
// reply, whose payload must fill dst exactly.
func (s *subprocessDevice) wait(req *request, payload, dst []byte) error {
	if err := s.post(req, payload); err != nil {
		return err
	}
	if err := s.w.Flush(); err != nil {
		return s.fail(opName(req.op), err)
	}
	s.waits++
	status, text, err := readReply(s.r, dst)
	if err != nil {
		return s.fail(opName(req.op), err)
	}
	s.wireIn += int64(replyHeaderLen + len(dst) + len(text))
	switch status {
	case statusErr:
		return fmt.Errorf("subprocess device: %s", text)
	case statusPosted:
		return fmt.Errorf("subprocess device: %s not run, an earlier posted operation failed: %s", opName(req.op), text)
	}
	return nil
}

// fail makes a transport error sticky: the two streams are no longer in
// step, so the child is killed and reaped and every later operation
// returns the same error without touching the pipe.
func (s *subprocessDevice) fail(op string, cause error) error {
	who := "worker"
	if s.cmd != nil {
		who = fmt.Sprintf("worker pid %d", s.cmd.Process.Pid)
		s.cmd.Process.Kill()
	}
	exit := ""
	if err := s.reap(); err != nil {
		exit = "; worker: " + err.Error()
	}
	s.broken = fmt.Errorf("subprocess device (%s): %s: %w: %v%s", who, op, errDeviceLost, cause, exit)
	return s.broken
}

// reap closes the connection — EOF on stdin ends a live worker's loop —
// and waits for the child, with a kill fallback so it never hangs.
func (s *subprocessDevice) reap() error {
	s.stdin.Close()
	var err error
	if s.cmd != nil {
		done := make(chan error, 1)
		go func() { done <- s.cmd.Wait() }()
		select {
		case err = <-done:
		case <-time.After(5 * time.Second):
			s.cmd.Process.Kill()
			err = <-done
		}
	}
	s.cmd, s.stdin, s.w, s.r = nil, nil, nil, nil
	return err
}

// Alloc posts the buffer's shape — type name and element count, never
// contents — after checking the mappable-type rule host-side.
func (s *subprocessDevice) Alloc(obj Object) (Ptr, error) {
	name, count, err := obj.wireShape()
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.readyLocked(); err != nil {
		return 0, err
	}
	s.next++
	if err := s.post(&request{op: opAlloc, buf: uint64(s.next), name: name, n: count}, nil); err != nil {
		return 0, err
	}
	return s.next, nil
}

// do runs one operation under the device lock: posted, or waited with the
// reply read into dst.
func (s *subprocessDevice) do(waited bool, req *request, payload, dst []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.readyLocked(); err != nil {
		return err
	}
	if waited {
		return s.wait(req, payload, dst)
	}
	return s.post(req, payload)
}

// MapTo posts the object's raw memory. The bytes are copied (into the
// writer's buffer or the pipe) before it returns, so the host may change
// the object afterwards.
func (s *subprocessDevice) MapTo(p Ptr, obj Object) error {
	raw := obj.raw()
	return s.do(false, &request{op: opMapTo, buf: uint64(p), n: int64(len(raw))}, raw, nil)
}

// MapFrom waits for the buffer's contents, read straight into the object.
func (s *subprocessDevice) MapFrom(p Ptr, obj Object) error {
	return s.do(true, &request{op: opMapFrom, buf: uint64(p)}, nil, obj.raw())
}

func (s *subprocessDevice) Free(p Ptr) error {
	return s.do(false, &request{op: opFree, buf: uint64(p)}, nil, nil)
}

// Exec ships the kernel name and argument bindings to the worker. Closure
// kernels have no cross-process representation; the manager turns
// ErrNotOffloadable into host fallback or a mandatory-offload failure.
func (s *subprocessDevice) Exec(name string, k Kernel, cfg Launch, args []Arg) error {
	if name == "" {
		return ErrNotOffloadable
	}
	if _, ok := LookupKernel(name); !ok {
		return fmt.Errorf("subprocess device: %w: %q", ErrNoKernel, name)
	}
	return s.do(true, &request{op: opExec, name: name, cfg: cfg, args: args}, nil, nil)
}

// Sync round-trips the pipe: the worker applies frames in order, so the
// reply means everything posted before it has been applied.
func (s *subprocessDevice) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.broken != nil {
		return s.broken
	}
	if !s.started || s.startErr != nil {
		return nil // nothing ever ran
	}
	return s.wait(&request{op: opSync}, nil, nil)
}

// Close ends the worker: closing stdin EOFs its loop, then the child is
// reaped. Frames posted and never waited on are dropped with it.
func (s *subprocessDevice) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.broken == nil {
		s.broken = errors.New("subprocess device: closed")
	}
	if s.stdin == nil {
		return nil
	}
	return s.reap()
}
