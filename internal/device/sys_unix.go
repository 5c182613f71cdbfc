//go:build unix

package device

import (
	"fmt"
	"os"
	"syscall"
)

// The subprocess device's platform layer: the arena's object and mapping.
// Linux overrides the object and flags, and adds the poll loop's yield
// (sys_linux.go); elsewhere the object is a temporary file, unlinked at once
// so nothing outlives the processes that map it.
var (
	memfd    = func() (*os.File, error) { return nil, nil }
	mapFlags = syscall.MAP_SHARED
)

// newArena creates an arena object and maps it. Its first span is the
// mailbox, never released.
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
	if err == nil {
		_, _, err = a.alloc(mailboxLen)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return a, nil
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
