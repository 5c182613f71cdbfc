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
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/icv"
)

// WorkerEnv marks a process as a device worker: the subprocess backend
// re-executes the current binary with it set, and WorkerMain serves.
const WorkerEnv = "GOMP_TARGET_WORKER"

// helloMagic opens a serving worker's replies; a binary that forgot to
// call WorkerMain does not send it.
const helloMagic = "gomp-device-worker-3"

const (
	wireBufLen = 64 << 10 // a pipe's capacity: a frame is one read
	arenaFD    = 3        // the worker's arena: the first of ExtraFiles
)

// errDeviceLost marks a sticky transport failure: the worker is gone and
// its buffers with it, so the present table drops the device's entries.
var errDeviceLost = errors.New("device lost")

// IsWorker reports whether this process was spawned as a device worker.
func IsWorker() bool { return os.Getenv(WorkerEnv) != "" }

// WorkerMain turns a worker process into a kernel server on its standard
// pipes and the arena at arenaFD, exiting when the parent hangs up; in any
// other process it returns at once. Programs that offload call it first
// thing in main, so the re-executed binary serves instead of running.
func WorkerMain() {
	if !IsWorker() {
		return
	}
	if err := WorkerServe(spinning(pollable(os.Stdin)), os.Stdout, os.NewFile(arenaFD, "gomp-device-arena")); err != nil {
		fmt.Fprintf(os.Stderr, "gomp device worker: %v\n", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// WorkerServe runs the worker loop on an explicit connection and arena
// object (for tests and custom transports): hello, the Init handshake that
// builds the runtime, then Execs over views of the arena. It returns nil
// when the stream ends between frames, and an error when it ends inside
// one or stops making sense: it never guesses where a frame starts.
func WorkerServe(r io.Reader, w io.Writer, arenaFile *os.File) error {
	ar, err := mapArena(arenaFile, arenaWindow)
	if err != nil {
		return err
	}
	defer ar.unmap()
	br, icvs := bufio.NewReaderSize(r, wireBufLen), icv.Default()
	if err := writeReply(w, statusOK, []byte(helloMagic)); err != nil {
		return err
	}
	switch first, err := readRequest(br); {
	case err == io.EOF:
		return nil
	case err != nil:
		return fmt.Errorf("handshake: %w", err)
	case first.op != opInit || first.n < 0 || first.n > maxInitBytes:
		return fmt.Errorf("handshake: want init with at most %d payload bytes, got %s with %d", maxInitBytes, opNames[first.op], first.n)
	default:
		icvJSON := make([]byte, first.n)
		if _, err := io.ReadFull(br, icvJSON); err != nil {
			return fmt.Errorf("handshake: %w", truncated(err))
		}
		if err := json.Unmarshal(icvJSON, icvs); err != nil {
			return fmt.Errorf("handshake: ICVs: %w", err)
		}
	}
	rt := core.NewRuntime(icvs)
	defer rt.Pool().Shutdown()
	if err := writeReply(w, statusOK, nil); err != nil {
		return err
	}
	for {
		req, err := readRequest(br)
		switch {
		case err == io.EOF:
			return nil
		case err != nil:
			return err
		case req.op != opExec:
			return fmt.Errorf("init after the handshake")
		}
		status, out := statusOK, []byte(nil)
		if fail := exec1(ar, rt, &req); fail != "" {
			status, out = statusErr, []byte("worker: "+fail)
		}
		if err := writeReply(w, status, out); err != nil {
			return err
		}
	}
}

// exec1 runs a kernel over views of the arena; a bad argument or a panic
// is a wire error.
func exec1(ar *arena, rt *core.Runtime, req *request) (fail string) {
	k, ok := LookupKernel(req.name)
	if !ok {
		return fmt.Sprintf("%v: %q", ErrNoKernel, req.name)
	}
	vals := make(map[string]any, len(req.args))
	for i, a := range req.args {
		v, err := ar.view(&req.args[i])
		if err != nil {
			return fmt.Sprintf("kernel %q: argument %q: %v", req.name, a.name, err)
		}
		vals[a.name] = v
	}
	defer func() {
		if r := recover(); r != nil {
			fail = fmt.Sprintf("kernel %q panicked: %v", req.name, r)
		}
	}()
	k(rt, req.cfg, NewEnv(vals))
	return ""
}

// subprocessDevice proxies Device calls to a worker child. Buffers are spans
// of an arena both processes map, so only Exec crosses the pipe: one frame
// out, one reply back. The child is spawned lazily on first use; all
// operations serialise on s.mu.
type subprocessDevice struct {
	icvs   *icv.Set
	window int64 // the arena's reserved range

	mu       sync.Mutex
	started  bool
	startErr error
	broken   error // sticky: a transport failure, or Close
	cmd      *exec.Cmd
	stdin    io.WriteCloser
	r        *bufio.Reader
	scratch  []byte    // request encoding, reused
	args     []wireArg // Exec's argument records, reused
	ar       *arena
	bufs     map[Ptr]*span
	next     Ptr

	// Wire accounting for tests: round trips, bytes written and read.
	waits, wireOut, wireIn int64
}

// span is one device buffer. unfilled marks reused storage no MapTo has
// overwritten, cleared before a kernel or MapFrom reads it: map(alloc:)
// and map(from:) storage reads as zeros, as fresh arena storage does.
type span struct {
	off, n   int64 // offset and byte size
	typ      string
	count    int64 // elements, -1 for one boxed value
	unfilled bool
}

// NewSubprocess builds the out-of-process backend; the worker, spawned at
// the first device operation, inherits icvs (cloned; nil = defaults).
func NewSubprocess(icvs *icv.Set) Device {
	if icvs == nil {
		icvs = icv.Default()
	}
	return &subprocessDevice{icvs: icvs.Clone(), window: arenaWindow, bufs: map[Ptr]*span{}}
}

func (s *subprocessDevice) Name() string    { return "subprocess" }
func (s *subprocessDevice) InProcess() bool { return false }

// Start spawns the worker child and its arena, idempotently. A worker
// never starts workers of its own (no recursive offload).
func (s *subprocessDevice) Start() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.startLocked()
}

func (s *subprocessDevice) startLocked() error {
	if !s.started {
		s.started, s.startErr = true, s.spawn()
	}
	return s.startErr
}

func (s *subprocessDevice) spawn() error {
	if IsWorker() {
		return fmt.Errorf("subprocess device: refusing to nest workers (already a worker)")
	}
	exe, err := os.Executable()
	if err == nil {
		s.ar, err = newArena(s.window)
	}
	if err != nil {
		return fmt.Errorf("subprocess device: %v", err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), WorkerEnv+"=1")
	cmd.Stderr = os.Stderr
	cmd.ExtraFiles = []*os.File{s.ar.f}
	stdin, err := cmd.StdinPipe()
	var stdout io.Reader
	if err == nil {
		stdout, err = cmd.StdoutPipe()
	}
	if err == nil {
		err = cmd.Start()
	}
	if err != nil {
		s.closeArena()
		return fmt.Errorf("subprocess device: %v", err)
	}
	s.cmd = cmd
	return s.connect(stdin, spinning(stdout))
}

// connect runs the handshake: the worker's hello, under a timeout so a
// binary that does not serve the protocol is an error instead of a hang,
// then Init with the device's ICV set for the worker's runtime.
func (s *subprocessDevice) connect(stdin io.WriteCloser, stdout io.Reader) error {
	icvJSON, err := json.Marshal(s.icvs)
	if err != nil {
		return fmt.Errorf("subprocess device: ICVs: %v", err)
	}
	s.stdin, s.r = stdin, bufio.NewReaderSize(stdout, wireBufLen)
	cmd := s.cmd // killing the child closes its pipe, which ends the read
	timer := time.AfterFunc(10*time.Second, func() {
		if cmd != nil {
			cmd.Process.Kill()
		}
	})
	_, got, err := readReply(s.r)
	if !timer.Stop() {
		err = errors.New("timed out; does main call device.WorkerMain()?")
	} else if err == nil && got != helloMagic {
		err = fmt.Errorf("bad hello %q", got)
	}
	if err != nil {
		return s.fail("handshake", err)
	}
	return s.wait(&request{op: opInit, n: int64(len(icvJSON))}, icvJSON)
}

// readyLocked gates every operation: a failed device answers with its
// sticky error at once; otherwise the worker is started if need be.
func (s *subprocessDevice) readyLocked() error {
	if s.broken != nil {
		return s.broken
	}
	return s.startLocked()
}

// wait writes one request frame and reads its reply, under s.mu after
// readyLocked.
func (s *subprocessDevice) wait(req *request, payload []byte) error {
	s.scratch = append(appendRequest(s.scratch[:0], req), payload...)
	s.waits++
	s.wireOut += int64(len(s.scratch))
	if _, err := s.stdin.Write(s.scratch); err != nil {
		return s.fail(opNames[req.op], err)
	}
	status, text, err := readReply(s.r)
	if err == nil && status == statusOK && text != "" {
		err = fmt.Errorf("reply carries %d bytes, expected none", len(text))
	}
	if err != nil {
		return s.fail(opNames[req.op], err)
	}
	s.wireIn += int64(replyHeaderLen + len(text))
	if status != statusOK {
		return fmt.Errorf("subprocess device: %s", text)
	}
	return nil
}

// fail makes a transport error sticky: the streams are out of step, so the
// child is killed and reaped, and every later call returns this error.
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

// reap closes stdin, which ends a live worker's loop, waits for the child
// (killing it if need be, so it never hangs) and drops the arena.
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
	s.cmd, s.stdin, s.r = nil, nil, nil
	s.closeArena()
	return err
}

// closeArena drops the host's side; the worker's mapping lives on with it.
func (s *subprocessDevice) closeArena() {
	if s.ar != nil {
		s.ar.unmap()
		s.ar.f.Close()
		s.ar, s.bufs = nil, nil
	}
}

// Alloc takes a span of the arena for the object after checking the
// mappable-type rule; the worker learns of it from the Exec that uses it.
func (s *subprocessDevice) Alloc(obj Object) (Ptr, error) {
	typ, count, err := obj.wireShape()
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.readyLocked(); err != nil {
		return 0, err
	}
	off, reused, err := s.ar.alloc(obj.byteSize())
	if err != nil {
		return 0, fmt.Errorf("subprocess device: %v", err)
	}
	s.next++
	s.bufs[s.next] = &span{off: off, n: obj.byteSize(), typ: typ, count: count, unfilled: reused}
	return s.next, nil
}

func (s *subprocessDevice) spanLocked(p Ptr) (*span, error) {
	if err := s.readyLocked(); err != nil {
		return nil, err
	}
	if b := s.bufs[p]; b != nil {
		return b, nil
	}
	return nil, fmt.Errorf("subprocess device: unknown buffer %d", p)
}

// mem is b's storage in the host's mapping, cleared first if unfilled.
func (s *subprocessDevice) mem(b *span) []byte {
	m := s.ar.mem[b.off : b.off+b.n]
	if b.unfilled {
		clear(m)
		b.unfilled = false
	}
	return m
}

// transfer is MapTo (to) and MapFrom: a copy through the host's mapping,
// never cut short, since a span changes only during an Exec that the
// caller waits for.
func (s *subprocessDevice) transfer(p Ptr, obj Object, to bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, err := s.spanLocked(p)
	if err != nil {
		return err
	}
	raw := obj.raw()
	switch {
	case int64(len(raw)) != b.n:
		return fmt.Errorf("subprocess device: %d bytes for buffer %d of %d", len(raw), p, b.n)
	case to:
		b.unfilled = false
		copy(s.mem(b), raw)
	default:
		copy(raw, s.mem(b))
	}
	return nil
}

func (s *subprocessDevice) MapTo(p Ptr, obj Object) error   { return s.transfer(p, obj, true) }
func (s *subprocessDevice) MapFrom(p Ptr, obj Object) error { return s.transfer(p, obj, false) }

func (s *subprocessDevice) Free(p Ptr) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, err := s.spanLocked(p)
	if err == nil {
		delete(s.bufs, p)
		s.ar.release(b.off, b.n)
	}
	return err
}

// Exec sends the kernel name, the launch and each argument's name, type,
// count and span offset, and waits for the reply. Closure kernels cannot
// cross; the manager turns ErrNotOffloadable into the offload policy.
func (s *subprocessDevice) Exec(name string, k Kernel, cfg Launch, args []Arg) error {
	if name == "" {
		return ErrNotOffloadable
	}
	if _, ok := LookupKernel(name); !ok {
		return fmt.Errorf("subprocess device: %w: %q", ErrNoKernel, name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	bad := len(name) > maxNameLen || len(args) > math.MaxUint8
	s.args = s.args[:0]
	for _, a := range args {
		b, err := s.spanLocked(a.Ptr)
		if err != nil {
			return err
		}
		s.mem(b) // the kernel sees zeros, not a previous buffer's data
		bad = bad || len(a.Name) > maxNameLen || len(b.typ) > maxNameLen
		s.args = append(s.args, wireArg{name: a.Name, typ: b.typ, count: b.count, off: uint64(b.off)})
	}
	if bad {
		return fmt.Errorf("subprocess device: exec %q: a name over %d bytes or more than %d map items", name, maxNameLen, math.MaxUint8)
	}
	if err := s.readyLocked(); err != nil {
		return err
	}
	return s.wait(&request{op: opExec, name: name, cfg: cfg, args: s.args}, nil)
}

// Sync has nothing to drain; it reports the sticky failure, if any.
func (s *subprocessDevice) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.broken
}

// Close ends the worker (closing stdin EOFs its loop) and the arena.
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
