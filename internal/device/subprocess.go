package device

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/icv"
)

// WorkerEnv marks a process as a device worker: the subprocess backend
// re-executes the current binary with it set, and WorkerMain serves.
const WorkerEnv = "GOMP_TARGET_WORKER"

// helloMagic opens a serving worker's output; a binary that forgot to call
// WorkerMain does not send it.
const helloMagic = "gomp-device-worker-4"

const arenaFD = 3 // the worker's arena: the first of ExtraFiles

// pipeSpin bounds how long a side polls the mailbox before parking on its
// pipe: about twice a parked round trip (≈ 45 µs on the reference sandbox).
const pipeSpin = 100 * time.Microsecond

var (
	spin     = runtime.NumCPU() > 1 // else a side parks at once
	yield    = func() {}            // sched_yield on Linux
	wakeByte = []byte{1}
)

// errDeviceLost marks a sticky transport failure: the worker is gone and
// its buffers with it, so the present table drops the device's entries.
var errDeviceLost = errors.New("device lost")

// IsWorker reports whether this process was spawned as a device worker.
func IsWorker() bool { return os.Getenv(WorkerEnv) != "" }

// WorkerMain turns a worker process into a kernel server on the arena at
// arenaFD and its standard pipes, exiting when the parent hangs up; in any
// other process it returns at once. Programs that offload call it first
// thing in main, so the re-executed binary serves instead of running.
func WorkerMain() {
	if !IsWorker() {
		return
	}
	if err := WorkerServe(os.Stdin, os.Stdout, os.NewFile(arenaFD, "gomp-device-arena")); err != nil {
		fmt.Fprintf(os.Stderr, "gomp device worker: %v\n", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// endpoint is one side of the mailbox, 0 the host or 1 the worker, with the
// pipes that carry wake bytes: in from the peer (EOF: it is gone), out to it.
type endpoint struct {
	*mailbox
	side  int
	in    io.Reader
	out   io.Writer
	seen  uint32 // the peer's sequence word at its last frame
	frame []byte // the peer's last frame, copied out of its area
}

func newEndpoint(mb *mailbox, side int, in io.Reader, out io.Writer) *endpoint {
	return &endpoint{mailbox: mb, side: side, in: in, out: out, seen: mb.seq[1-side].Load(), frame: make([]byte, len(mb.area(1-side)))}
}

// post publishes the n-byte frame in this side's area: length word, sequence
// word, then a wake byte only if the peer had parked. A parking side sets
// its parked word before it re-reads the sequence word, all four accesses
// sequentially consistent: it sees the new sequence or is seen (Dekker).
func (e *endpoint) post(n uint32) error {
	e.n[e.side].Store(n)
	e.seq[e.side].Add(1)
	if e.parked[1-e.side].Swap(0) == 1 {
		_, err := e.out.Write(wakeByte)
		return err
	}
	return nil
}

// recv waits for the peer's next frame: it polls the peer's sequence word
// for pipeSpin, yielding and reading the clock every 256 polls, then parks
// on a wake byte, its parked word set only around a re-read and the park,
// so a stale wake byte is harmless. It copies the frame out after checking
// its length word, so the peer cannot change it under the decoder.
func (e *endpoint) recv() ([]byte, error) {
	peer := 1 - e.side
	seq, parked := &e.seq[peer], &e.parked[e.side]
	var deadline time.Time
	for i := 1; spin && seq.Load() == e.seen; i++ {
		if i%256 == 0 {
			yield()
			if now := time.Now(); deadline.IsZero() {
				deadline = now.Add(pipeSpin)
			} else if now.After(deadline) {
				break
			}
		}
	}
	for seq.Load() == e.seen {
		parked.Store(1)
		if seq.Load() == e.seen {
			if _, err := e.in.Read(e.frame[:1]); err != nil {
				return nil, err
			}
		}
		parked.Store(0)
	}
	e.seen = seq.Load()
	n := e.n[peer].Load()
	if n > uint32(len(e.frame)) {
		return nil, fmt.Errorf("frame of %d bytes exceeds the %d-byte mailbox area", n, len(e.frame))
	}
	return e.frame[:copy(e.frame, e.area(peer)[:n])], nil
}

// worker is WorkerServe's state, with the last Exec that checked out.
type worker struct {
	*endpoint
	ar   *arena
	rt   *core.Runtime
	last []byte
	req  request
	k    Kernel
	env  *Env
}

// WorkerServe runs the worker loop on an explicit connection and arena
// object (for tests and custom transports): the hello on w, then Init and
// Execs through the mailbox, with only wake bytes on r and w. It returns
// nil when r ends, and an error on a frame it cannot trust.
func WorkerServe(r io.Reader, w io.Writer, arenaFile *os.File) error {
	ar, err := mapArena(arenaFile, arenaWindow)
	if err != nil {
		return err
	}
	defer ar.unmap()
	if ar.size < mailboxLen {
		return fmt.Errorf("arena of %d bytes holds no mailbox", ar.size)
	}
	wk := &worker{endpoint: newEndpoint(ar.mailbox(), 1, r, w), ar: ar}
	defer func() {
		if wk.rt != nil {
			wk.rt.Pool().Shutdown()
		}
	}()
	if _, err := w.Write(appendReply(nil, statusOK, helloMagic)); err != nil {
		return err
	}
	for {
		frame, err := wk.recv()
		status, fail := statusOK, ""
		if err == nil {
			fail, err = wk.serve(frame)
		}
		if err == io.EOF {
			return nil
		} else if err != nil {
			return err
		} else if fail != "" {
			status, fail = statusErr, "worker: "+fail
		}
		fail = fail[:min(len(fail), maxErrBytes)] // so the reply fits its area
		if err := wk.post(uint32(len(appendReply(wk.rep[:0], status, fail)))); err != nil {
			return err
		}
	}
}

// serve handles one frame: Init, which builds the runtime, then Execs. A bad
// argument or a panic is a wire error (fail); a frame that does not decode
// or comes out of turn ends the worker (err). An Exec equal byte for byte to
// the last one that checked out reuses its kernel, launch and views: the
// arena never shrinks while the worker lives, the type registry is fixed at
// init, and the frame carries every field the views were checked on.
func (wk *worker) serve(frame []byte) (fail string, err error) {
	if len(wk.last) == 0 || !bytes.Equal(frame, wk.last) {
		wk.last = wk.last[:0]
		var payload []byte
		if wk.req, payload, err = parseRequest(frame); err == nil && (wk.req.op == opInit) != (wk.rt == nil) {
			err = fmt.Errorf("%s out of turn", opNames[wk.req.op])
		}
		if err == nil && wk.req.op == opInit {
			icvs := icv.Default()
			if err = json.Unmarshal(payload, icvs); err == nil {
				wk.rt = core.NewRuntime(icvs)
				return "", nil
			}
		}
		if err != nil {
			return "", err
		}
		var ok bool
		if wk.k, ok = LookupKernel(wk.req.name); !ok {
			return fmt.Sprintf("%v: %q", ErrNoKernel, wk.req.name), nil
		}
		vals := make(map[string]any, len(wk.req.args))
		for i, a := range wk.req.args {
			if vals[a.name], err = wk.ar.view(&wk.req.args[i]); err != nil {
				return fmt.Sprintf("kernel %q: argument %q: %v", wk.req.name, a.name, err), nil
			}
		}
		wk.env, wk.last = NewEnv(vals), append(wk.last, frame...)
	}
	defer func() {
		if r := recover(); r != nil {
			fail = fmt.Sprintf("kernel %q panicked: %v", wk.req.name, r)
		}
	}()
	wk.k(wk.rt, wk.req.cfg, wk.env)
	return "", nil
}

// subprocessDevice proxies Device calls to a worker child. Buffers are spans
// of an arena both processes map, so only Exec crosses to the worker: one
// frame out through the mailbox, one reply back. The child is spawned
// lazily; all operations serialise on s.mu, so one request is outstanding.
type subprocessDevice struct {
	icvs   *icv.Set
	window int64 // the arena's reserved range

	mu       sync.Mutex
	started  bool
	startErr error
	broken   error // sticky: a transport failure, or Close
	cmd      *exec.Cmd
	stdin    io.WriteCloser
	end      *endpoint
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
	return s.connect(stdin, stdout)
}

// connect runs the handshake: the worker's hello on its pipe, under a
// timeout so a binary that does not serve the protocol is an error instead
// of a hang, then Init with the device's ICV set for the worker's runtime.
// After the hello the pipes carry only wake bytes.
func (s *subprocessDevice) connect(stdin io.WriteCloser, stdout io.Reader) error {
	icvJSON, err := json.Marshal(s.icvs)
	if err != nil {
		return fmt.Errorf("subprocess device: ICVs: %v", err)
	}
	s.stdin, s.end = stdin, newEndpoint(s.ar.mailbox(), 0, stdout, stdin)
	cmd := s.cmd // killing the child closes its pipe, which ends the read
	timer := time.AfterFunc(10*time.Second, func() {
		if cmd != nil {
			cmd.Process.Kill()
		}
	})
	hello := make([]byte, replyHeaderLen+len(helloMagic))
	_, err = io.ReadFull(stdout, hello)
	if !timer.Stop() {
		err = errors.New("timed out; does main call device.WorkerMain()?")
	} else if err == nil && !bytes.Equal(hello, appendReply(nil, statusOK, helloMagic)) {
		err = fmt.Errorf("bad hello %q", hello)
	}
	if err != nil {
		return s.fail("handshake", err)
	}
	return s.call(&request{op: opInit, n: int64(len(icvJSON))}, icvJSON)
}

// readyLocked gates every operation: a failed device answers with its
// sticky error at once; otherwise the worker is started if need be.
func (s *subprocessDevice) readyLocked() error {
	if s.broken != nil {
		return s.broken
	}
	return s.startLocked()
}

// call posts one request frame and waits for its reply, under s.mu after
// readyLocked.
func (s *subprocessDevice) call(req *request, payload []byte) error {
	s.scratch = append(appendRequest(s.scratch[:0], req), payload...)
	s.waits++
	s.wireOut += int64(len(s.scratch))
	err := s.end.post(uint32(copy(s.end.req[:], s.scratch)))
	rep, status, text := []byte(nil), statusOK, ""
	if err == nil {
		rep, err = s.end.recv()
	}
	if err == nil {
		status, text, err = parseReply(rep)
	}
	if err == nil && status == statusOK && text != "" {
		err = fmt.Errorf("reply carries %d bytes, expected none", len(text))
	}
	if err != nil {
		return s.fail(opNames[req.op], err)
	}
	s.wireIn += int64(len(rep))
	if status != statusOK {
		return fmt.Errorf("subprocess device: %s", text)
	}
	return nil
}

// fail makes a transport error sticky: the mailbox is out of step, so the
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

// reap closes stdin, which ends a live worker's wait, waits for the child
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
	s.cmd, s.stdin, s.end = nil, nil, nil
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
	return s.call(&request{op: opExec, name: name, cfg: cfg, args: s.args}, nil)
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
