package device

import (
	"os"
	"runtime"
	"syscall"
	"unsafe"
)

// On Linux the arena is a memfd, which writes nothing to any filesystem,
// mapped MAP_NORESERVE so the window commits nothing. syscall has no
// memfd_create and lacks its number on amd64, hence the table; other
// architectures, and kernels without the call, use the temporary file.
func init() {
	mapFlags |= syscall.MAP_NORESERVE
	nr := map[string]uintptr{"amd64": 319, "386": 356, "arm": 385, "arm64": 279, "riscv64": 279, "loong64": 279}[runtime.GOARCH]
	if nr == 0 {
		return
	}
	memfd = func() (*os.File, error) {
		name := []byte("gomp-device-arena\x00")
		fd, _, errno := syscall.Syscall(nr, uintptr(unsafe.Pointer(&name[0])), 1 /* MFD_CLOEXEC */, 0)
		if errno == syscall.ENOSYS {
			return nil, nil
		} else if errno != 0 {
			return nil, errno
		}
		return os.NewFile(fd, "memfd:gomp-device-arena"), nil
	}
}
