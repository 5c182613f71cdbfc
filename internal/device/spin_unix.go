//go:build unix

package device

import (
	"io"
	"os"
	"runtime"
	"syscall"
	"time"
)

// pipeSpin is how long a reader polls an empty pipe before parking in the
// runtime's poller. Parking is the expensive way to wait for a peer that
// answers in microseconds: on the reference sandbox a parked round trip
// costs ≈ 45 µs against ≈ 4 µs polled. Polling for about twice what a park
// costs bounds the cycles a long wait burns while keeping back-to-back
// launches off the park path on both ends.
const pipeSpin = 100 * time.Microsecond

// spinReader reads a pipe the runtime polls, retrying an empty pipe for
// pipeSpin before parking.
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
