//go:build unix

package device

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"syscall"
	"time"
)

// The subprocess device's platform layer: the arena's object and mapping,
// and pipe reads that poll before they park. Linux overrides the object
// and flags (sys_linux.go); elsewhere the object is a temporary file,
// unlinked at once so nothing outlives the processes that map it.
var (
	memfd    = func() (*os.File, error) { return nil, nil }
	mapFlags = syscall.MAP_SHARED
)

// newArena creates an empty arena object and maps it.
func newArena(window int64) (*arena, error) {
	f, err := memfd()
	if f == nil && err == nil {
		if f, err = os.CreateTemp("", "gomp-device-arena-*"); err == nil {
			os.Remove(f.Name())
		}
	}
	if err != nil {
		return nil, fmt.Errorf("arena: %v", err)
	}
	a, err := mapArena(f, window)
	if err != nil {
		f.Close()
	}
	return a, err
}

// mapArena maps f shared over a reserved window; the pages past the
// object's end are backed only once it grows over them.
func mapArena(f *os.File, window int64) (*arena, error) {
	fi, err := f.Stat()
	if err == nil {
		var mem []byte
		if mem, err = syscall.Mmap(int(f.Fd()), 0, int(window), syscall.PROT_READ|syscall.PROT_WRITE, mapFlags); err == nil {
			return &arena{f: f, mem: mem, size: min(fi.Size(), window)}, nil
		}
	}
	return nil, fmt.Errorf("arena: %v", err)
}

func (a *arena) unmap() error { return syscall.Munmap(a.mem) }

// pipeSpin is how long a reader polls an empty pipe before parking in the
// runtime's poller: a parked round trip costs ≈ 45 µs against ≈ 4 µs
// polled on the reference sandbox, and polling about twice what a park
// costs bounds the cycles a long wait burns.
const pipeSpin = 100 * time.Microsecond

// spinReader reads a polled pipe, retrying while empty for pipeSpin.
type spinReader struct{ rc syscall.RawConn }

// spinning wraps r in a spinReader when r is a pollable file and a second
// processor exists for the peer to run on; anything else reads as it is.
func spinning(r io.Reader) io.Reader {
	if f, ok := r.(*os.File); ok && runtime.NumCPU() > 1 {
		if rc, err := f.SyscallConn(); err == nil {
			return &spinReader{rc: rc}
		}
	}
	return r
}

func (s *spinReader) Read(p []byte) (n int, err error) {
	var deadline time.Time
	rcErr := s.rc.Read(func(fd uintptr) bool {
		for {
			n, err = syscall.Read(int(fd), p)
			if err != syscall.EAGAIN && err != syscall.EINTR {
				return true
			}
			if now := time.Now(); deadline.IsZero() {
				deadline = now.Add(pipeSpin)
			} else if now.After(deadline) {
				return false // park until readable, then try once more
			}
		}
	})
	switch {
	case rcErr != nil:
		return 0, rcErr
	case err != nil:
		return 0, err
	case n == 0 && len(p) > 0:
		return 0, io.EOF
	}
	return n, nil
}

// pollable reopens f non-blocking so the runtime's poller, and with it
// spinning, can serve it: a worker's stdin arrives in blocking mode. On
// failure f is returned as it is.
func pollable(f *os.File) *os.File {
	fd := f.Fd()
	if err := syscall.SetNonblock(int(fd), true); err != nil {
		return f
	}
	return os.NewFile(fd, f.Name())
}
