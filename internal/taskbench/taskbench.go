// Package taskbench holds the task-parallel microbenchmark kernels, in the
// shape of the EPCC taskbench / BOTS suites, that the benchmark's task-dag
// workload (fib, n-queens) and the root BenchmarkTasks_Tree run: recursive
// fibonacci (a binary spawn tree, the classic task-overhead stress),
// n-queens (an irregular search tree with per-task board copies), and a
// synthetic unbalanced depth-first tree walk (UTS-style, deterministic via a
// splitmix64 node hash). Each kernel has a serial twin used as its
// correctness oracle.
//
// All three follow the BOTS cutoff idiom: spawn tasks near the root where
// parallelism pays, switch to plain recursion below the cutoff where a task
// per node would be all overhead. The kernels deliberately keep per-task
// state tiny (two result slots, a board copy, a node id) so what they price
// is the runtime's spawn/steal/complete path, not the body.
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

// --- unbalanced depth-first tree (UTS-style) ---

// splitmix64 is the node hash: child counts and child ids both derive from
// it, so the tree's (irregular) shape is a pure function of the root seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// treeKids maps a node to its child count in {0..3} (mean 1.5, so sibling
// subtrees differ wildly in size — the imbalance the work-stealing deques
// are for). depth is the remaining levels; leaves are forced at depth 0.
func treeKids(id uint64, depth int) int {
	if depth <= 0 {
		return 0
	}
	return int(splitmix64(id) & 3)
}

func treeChild(id uint64, k int) uint64 { return splitmix64(id ^ uint64(k+1)) }

// TreeSerial walks the synthetic tree depth-first and returns its node
// count: a root with rootKids children, each the seed of an irregular
// subtree at most depth levels deep.
func TreeSerial(rootKids, depth int) int64 {
	n := int64(1)
	for i := 0; i < rootKids; i++ {
		n += treeCount(splitmix64(uint64(i+1)), depth)
	}
	return n
}

func treeCount(id uint64, depth int) int64 {
	n := int64(1)
	for k := 0; k < treeKids(id, depth); k++ {
		n += treeCount(treeChild(id, k), depth-1)
	}
	return n
}

// Tree counts the same tree with one task per node while more than
// serialBelow levels remain; deeper subtrees are counted serially inside
// their task.
func Tree(rt *core.Runtime, rootKids, depth, serialBelow int) int64 {
	var count atomic.Int64
	rt.Parallel(func(t *core.Thread) {
		if t.Num() != 0 {
			return
		}
		count.Add(1)
		for i := 0; i < rootKids; i++ {
			id := splitmix64(uint64(i + 1))
			t.Task(func(tt *core.Thread) { treeTask(tt, id, depth, serialBelow, &count) })
		}
		t.Taskwait()
	})
	return count.Load()
}

func treeTask(t *core.Thread, id uint64, depth, serialBelow int, count *atomic.Int64) {
	if depth <= serialBelow {
		count.Add(treeCount(id, depth))
		return
	}
	count.Add(1)
	for k := 0; k < treeKids(id, depth); k++ {
		child := treeChild(id, k)
		t.Task(func(tt *core.Thread) { treeTask(tt, child, depth-1, serialBelow, count) })
	}
	t.Taskwait()
}
