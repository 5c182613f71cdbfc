//go:build !unix

package device

import (
	"fmt"
	"os"
	"runtime"
)

// Without mmap there is no shared arena and so no subprocess device: Start
// fails, and OMP_TARGET_OFFLOAD decides between host fallback and an error.
var errNoArena = fmt.Errorf("no shared memory arena on %s", runtime.GOOS)

func newArena(int64) (*arena, error)           { return nil, errNoArena }
func mapArena(*os.File, int64) (*arena, error) { return nil, errNoArena }
func (a *arena) unmap() error                  { return nil }
