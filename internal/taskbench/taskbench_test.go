package taskbench

import (
	"testing"

	"repro/internal/core"
	"repro/internal/icv"
)

func benchRT(n int) *core.Runtime {
	s := icv.Default()
	s.NumThreads = []int{n}
	return core.NewRuntime(s)
}

// Every kernel must agree with its serial oracle at several team sizes —
// these are the taskbench correctness smokes CI runs under -race.
func TestFibMatchesSerial(t *testing.T) {
	want := FibSerial(20)
	for _, n := range []int{1, 2, 4} {
		if got := Fib(benchRT(n), 20, 10); got != want {
			t.Errorf("Fib(20) on %d threads = %d, want %d", n, got, want)
		}
	}
}

func TestNQueensMatchesSerial(t *testing.T) {
	want := NQueensSerial(8) // 92, the textbook value
	if want != 92 {
		t.Fatalf("NQueensSerial(8) = %d, want 92", want)
	}
	for _, n := range []int{1, 2, 4} {
		if got := NQueens(benchRT(n), 8, 3); got != want {
			t.Errorf("NQueens(8) on %d threads = %d, want %d", n, got, want)
		}
	}
}
