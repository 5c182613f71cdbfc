// Package taskbench holds the task-parallel microbenchmark kernels, in the
// shape of the EPCC taskbench / BOTS suites, that the benchmark's task-dag
// workload runs: recursive fibonacci (a binary spawn tree, the classic
// task-overhead stress) and n-queens (an irregular search tree with
// per-task board copies). Each kernel has a serial twin used as its
// correctness oracle.
//
// Both follow the BOTS cutoff idiom: spawn tasks near the root where
// parallelism pays, switch to plain recursion below the cutoff where a task
// per node would be all overhead. The kernels deliberately keep per-task
// state tiny (two result slots, a board copy) so what they price is the
// runtime's spawn/steal/complete path, not the body.
package taskbench

import (
	"sync/atomic"

	"repro/internal/core"
)

// --- fibonacci ---

// FibSerial is the plain recursive fibonacci, the oracle and baseline.
func FibSerial(n int) int64 {
	if n < 2 {
		return int64(n)
	}
	return FibSerial(n-1) + FibSerial(n-2)
}

// Fib computes fibonacci(n) with one task per call above the cutoff, on the
// runtime's default team. Only the master generates the root; the rest of
// the team steals from the region-end barrier.
func Fib(rt *core.Runtime, n, cutoff int) int64 {
	var res int64
	rt.Parallel(func(t *core.Thread) {
		if t.Num() != 0 {
			return
		}
		fibTask(t, n, cutoff, &res)
	})
	return res
}

func fibTask(t *core.Thread, n, cutoff int, res *int64) {
	if n < cutoff {
		*res = FibSerial(n)
		return
	}
	var a, b int64
	t.Task(func(tt *core.Thread) { fibTask(tt, n-1, cutoff, &a) })
	t.Task(func(tt *core.Thread) { fibTask(tt, n-2, cutoff, &b) })
	t.Taskwait()
	*res = a + b
}

// --- n-queens ---

// NQueensSerial counts the solutions of the n-queens problem by plain
// depth-first search.
func NQueensSerial(n int) int64 {
	pos := make([]int8, n)
	return nqCount(pos, 0, n)
}

func nqSafe(pos []int8, row, col int) bool {
	for r := 0; r < row; r++ {
		c := int(pos[r])
		if c == col || c-r == col-row || c+r == col+row {
			return false
		}
	}
	return true
}

func nqCount(pos []int8, row, n int) int64 {
	if row == n {
		return 1
	}
	var sum int64
	for col := 0; col < n; col++ {
		if nqSafe(pos, row, col) {
			pos[row] = int8(col)
			sum += nqCount(pos, row+1, n)
		}
	}
	return sum
}

// NQueens counts n-queens solutions spawning one task per safe placement in
// the first cutoff rows (each task carries its own board copy, the BOTS
// shape); below the cutoff each task finishes its subtree serially.
func NQueens(rt *core.Runtime, n, cutoff int) int64 {
	var count atomic.Int64
	rt.Parallel(func(t *core.Thread) {
		if t.Num() != 0 {
			return
		}
		nqTask(t, make([]int8, n), 0, n, cutoff, &count)
	})
	return count.Load()
}

func nqTask(t *core.Thread, pos []int8, row, n, cutoff int, count *atomic.Int64) {
	if row >= cutoff {
		count.Add(nqCount(pos, row, n))
		return
	}
	for col := 0; col < n; col++ {
		if !nqSafe(pos, row, col) {
			continue
		}
		branch := make([]int8, n)
		copy(branch, pos)
		branch[row] = int8(col)
		t.Task(func(tt *core.Thread) { nqTask(tt, branch, row+1, n, cutoff, count) })
	}
	t.Taskwait()
}
