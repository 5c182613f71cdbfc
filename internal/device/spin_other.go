//go:build !unix

package device

import (
	"io"
	"os"
)

// No portable way to poll a pipe here: reads park at once.

func spinning(r io.Reader) io.Reader { return r }

func pollable(f *os.File) *os.File { return f }
