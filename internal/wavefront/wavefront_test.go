package wavefront

import (
	"testing"

	"repro/internal/core"
	"repro/internal/icv"
)

func newRuntime(n int) *core.Runtime {
	s := icv.Default()
	s.NumThreads = []int{n}
	return core.NewRuntime(s)
}

// serialChecksum runs the serial variant on a fresh grid.
func serialChecksum(s Spec) float64 {
	g := NewGrid(s)
	Serial(s, g)
	return Checksum(g)
}

func TestOMPMatchesSerialExactly(t *testing.T) {
	s := Spec{N: 257, Block: 32, Sweeps: 3}
	want := serialChecksum(s)
	for _, threads := range []int{1, 2, 4, 8} {
		g := NewGrid(s)
		OMP(newRuntime(threads), s, g)
		if got := Checksum(g); got != want {
			t.Errorf("OMP(threads=%d) checksum %v, want %v", threads, got, want)
		}
	}
}

// TestDoacrossMatchesSerialExactly is the acceptance gate of the doacross
// subsystem's scenario layer: the pipelined ordered(2) sweep must be
// bit-identical to the serial oracle — every cell, not just a checksum —
// across team sizes 1..8.
func TestDoacrossMatchesSerialExactly(t *testing.T) {
	s := Spec{N: 257, Block: 32, Sweeps: 3}
	want := NewGrid(s)
	Serial(s, want)
	for threads := 1; threads <= 8; threads++ {
		g := NewGrid(s)
		Doacross(newRuntime(threads), s, g)
		for i := range g {
			if g[i] != want[i] {
				t.Fatalf("Doacross(threads=%d): cell %d = %v, want %v", threads, i, g[i], want[i])
			}
		}
	}
}

// TestTaskgraphSweepsMatchSerial checks every cell, not just the checksum,
// of OMP's recorded first sweep and replayed later ones.
func TestTaskgraphSweepsMatchSerial(t *testing.T) {
	s := Spec{N: 129, Block: 16, Sweeps: 5}
	want := NewGrid(s)
	Serial(s, want)
	for threads := 1; threads <= 4; threads++ {
		g := NewGrid(s)
		OMP(newRuntime(threads), s, g)
		for i := range g {
			if g[i] != want[i] {
				t.Fatalf("OMP(threads=%d): cell %d = %v, want %v", threads, i, g[i], want[i])
			}
		}
	}
}

func TestDoacrossTinyGridsAndRaggedTiles(t *testing.T) {
	for _, s := range []Spec{
		{N: 2, Block: 64, Sweeps: 2},
		{N: 65, Block: 64, Sweeps: 2},
		{N: 100, Block: 33, Sweeps: 1},
	} {
		want := serialChecksum(s)
		g := NewGrid(s)
		Doacross(newRuntime(4), s, g)
		if got := Checksum(g); got != want {
			t.Errorf("Doacross %+v checksum %v, want %v", s, got, want)
		}
	}
}

func TestTinyGridsAndRaggedTiles(t *testing.T) {
	// Grids smaller than a tile, tile edges not dividing N-1, single tile.
	for _, s := range []Spec{
		{N: 2, Block: 64, Sweeps: 2},
		{N: 65, Block: 64, Sweeps: 2},
		{N: 100, Block: 33, Sweeps: 1},
	} {
		want := serialChecksum(s)
		g := NewGrid(s)
		OMP(newRuntime(4), s, g)
		if got := Checksum(g); got != want {
			t.Errorf("OMP %+v checksum %v, want %v", s, got, want)
		}
	}
}

// BenchmarkOMP times OMP at the task-dag benchmark's size (a 1024² grid in
// 16² tiles: 4096 tasks a sweep, eight sweeps) on two threads and reports
// its allocations per call.
func BenchmarkOMP(b *testing.B) {
	s := Spec{N: 1024, Block: 16, Sweeps: 8}
	rt := newRuntime(2)
	base := NewGrid(s)
	g := make([]float64, len(base))
	b.ReportAllocs()
	for b.Loop() {
		copy(g, base)
		OMP(rt, s, g)
	}
}
